//! The durability primitives every persistent format shares: atomic
//! whole-file writes, one-line appends, and the one torn-tail rule.
//!
//! Two line-oriented journals survive in this crate — the service's
//! write-ahead job journal (`jobs.jsonl`) and the telemetry event
//! journals — and both follow the same discipline: a header line, then
//! one JSON record per line, each appended as a *single* write through
//! the [`crate::iofault`] seam ([`append_line`]). A process killed
//! mid-append (or an injected torn write) can therefore only damage the
//! **final** line. [`scan`] owns the rule that follows from it, for
//! every reader: the WAL loader, the telemetry reader, and `fsck` all
//! walk their journals through it, each with its own per-format record
//! parser, so a file one of them accepts is never one another
//! quarantines.
//!
//! Everything else durable (store entries, manifests, rendered CSVs,
//! WAL compaction) is written whole with [`write_atomic`].

use std::fs::File;
use std::path::Path;

use crate::json::Json;

/// Structural health of a line-oriented journal, as [`scan`] finds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalClass {
    /// Header and every record line parse.
    Valid,
    /// Every line but the last parses; the last is torn — the `kill -9`
    /// mid-append signature. Readers drop it and keep the rest; an empty
    /// file or a lone torn header is this class too (the crash landed
    /// before or inside the header write).
    TornTail,
    /// The given 1-based line fails *before* the end: real corruption.
    /// Readers distrust the whole journal; `fsck` quarantines it.
    Corrupt(usize),
}

/// Walks a journal under the torn-tail rule. The first line goes to
/// `header`, which returns the reader's initial state (`None` rejects
/// the header); every later line goes to `record`, which folds it into
/// that state (`false` rejects the line). Blank lines are records like
/// any other and fail to parse. The scan stops at the first rejected
/// line: at the end of the file it is a [`JournalClass::TornTail`],
/// anywhere else [`JournalClass::Corrupt`] — and then the returned
/// state must not be trusted.
pub fn scan<T>(
    text: &str,
    header: impl FnOnce(&Json) -> Option<T>,
    mut record: impl FnMut(&mut T, &Json) -> bool,
) -> (JournalClass, Option<T>) {
    let mut lines = text.lines().enumerate().peekable();
    let mut state: Option<T> = None;
    let mut header = Some(header);
    while let Some((i, line)) = lines.next() {
        let ok = match (Json::parse(line), header.take()) {
            (Err(_), _) => false,
            (Ok(doc), Some(header)) => {
                state = header(&doc);
                state.is_some()
            }
            // A rejected header never reaches here: the scan stops on it.
            (Ok(doc), None) => state.as_mut().is_some_and(|s| record(s, &doc)),
        };
        if !ok {
            let class = match lines.peek() {
                None => JournalClass::TornTail,
                Some(_) => JournalClass::Corrupt(i + 1),
            };
            return (class, state);
        }
    }
    (if state.is_some() { JournalClass::Valid } else { JournalClass::TornTail }, state)
}

/// Appends `record` plus a newline as one write through the fault seam,
/// so a torn write can only ever leave a torn *final* line.
///
/// # Errors
///
/// The write error (injected faults included).
pub fn append_line(file: &mut File, record: &str) -> std::io::Result<()> {
    crate::iofault::write_all(file, format!("{record}\n").as_bytes())
}

/// Writes `content` to `path` atomically: tempfile in the same
/// directory, write, **fsync**, then rename over the target. Readers
/// (and a `kill -9`) never observe a half-written file, and the fsync
/// before the rename means the rename can never install a file whose
/// bytes a power cut could still lose.
///
/// Every step goes through [`crate::iofault`], so injected `ENOSPC`,
/// `EIO`, torn-write, and failed-fsync faults surface here as ordinary
/// errors — with the guarantee that a failure leaves the *old* target
/// intact and no tempfile behind (a crash between create and rename can
/// still orphan one; `cesimd --fsck` sweeps those).
///
/// # Errors
///
/// I/O errors from the write, fsync, or rename; the tempfile is cleaned
/// up on failure.
pub fn write_atomic(path: &Path, content: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = (|| {
        let mut file = crate::iofault::create(&tmp)?;
        crate::iofault::write_all(&mut file, content.as_bytes())?;
        crate::iofault::sync(&file)?;
        drop(file);
        crate::iofault::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts records under a `{"h": 1}` header; records must be `{"r": n}`.
    fn count(text: &str) -> (JournalClass, Option<u64>) {
        scan(
            text,
            |doc| (doc.at("h").and_then(Json::as_u64) == Some(1)).then_some(0),
            |n, doc| {
                *n += 1;
                doc.at("r").and_then(Json::as_u64).is_some()
            },
        )
    }

    /// The whole rule in one table: only the final line may fail.
    #[test]
    fn only_the_final_line_may_be_torn() {
        let h = "{\"h\": 1}";
        let r = "{\"r\": 7}";
        let cases: [(String, JournalClass); 9] = [
            (String::new(), JournalClass::TornTail),
            ("{\"h\"".into(), JournalClass::TornTail),
            ("{\"other\": 1}\n".into(), JournalClass::TornTail),
            (format!("{h}\n"), JournalClass::Valid),
            (format!("{h}\n{r}\n{r}\n"), JournalClass::Valid),
            (format!("{h}\n{r}\n{{\"r\": "), JournalClass::TornTail),
            (format!("{h}\n\n{r}\n"), JournalClass::Corrupt(2)),
            (format!("{h}\n{{\"x\": 1}}\n{r}\n"), JournalClass::Corrupt(2)),
            (format!("{{\"h\"\n{r}\n"), JournalClass::Corrupt(1)),
        ];
        for (text, want) in &cases {
            assert_eq!(count(text).0, *want, "{text:?}");
        }
        assert_eq!(count(&format!("{h}\n{r}\n{r}\n")).1, Some(2), "records fold into the state");
    }

    #[test]
    fn write_atomic_replaces_content() {
        let dir = std::env::temp_dir().join(format!("ce-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("out.csv");
        write_atomic(&path, "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        write_atomic(&path, "new\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new\n");
        assert!(std::fs::read_dir(&dir).unwrap().count() == 1, "no tempfile left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
