//! The on-disk content-addressed result store — the one durable copy of
//! every settled cell, for `cesimd` and the CLI sweeps alike.
//!
//! One file per simulated cell, named by the cell's identity hash
//! ([`crate::manifest::cell_key_with`]): `<root>/<key>.json`. The key
//! already folds in the code version, the benchmark trace fingerprint,
//! the full config fingerprint, the instruction cap, and the run
//! options — so a lookup by key *is* the cache-validity check for
//! everything except one hazard: the key is a 64-bit hash, and an
//! entry written by an older code version could in principle collide
//! with a current key. Each entry therefore also records the
//! `code_version` string in the clear, and [`ResultStore::lookup`]
//! treats a mismatch as [`Lookup::Stale`] — the entry is deleted, never
//! silently served. (`CE_CODE_VERSION` is how CI distinguishes builds;
//! see [`crate::manifest::code_version`].)
//!
//! Entries are written with [`write_atomic`] (tempfile + fsync +
//! rename), so a `kill -9` mid-insert leaves either the old entry or the
//! complete new one, never a torn file. Unparseable entries read back as
//! misses and are deleted. The store takes the code version as an
//! explicit argument rather than reading the environment, so parallel
//! tests (and a daemon serving differently-pinned clients) stay
//! race-free.
//!
//! Statistics are stored losslessly: every `u64` counter in [`SimStats`]
//! round-trips exactly (held as [`Json::Int`]), so a sweep assembled
//! from stored cells renders **byte-identical** CSVs to an uninterrupted
//! run. [`ResultStore::back_sweep`] is how a sweep uses the store: hits
//! become the sweep's prefill, and every freshly simulated cell is
//! inserted the moment it settles — so a killed sweep (CLI `--resume`)
//! or a killed daemon (WAL replay) re-simulates only what was in flight.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ce_sim::{SampledStats, SimStats, StallCause};

use crate::journal::write_atomic;
use crate::json::{self, Json};
use crate::manifest::{cell_key_with, fingerprint_traces};
use crate::runner::{CellHook, Job, RunOptions, TimedResult};
use crate::telemetry::{Event, Telemetry, TelemetrySink as _};

/// Format marker of a store entry.
const ENTRY_VERSION: u64 = 1;

/// A content-addressed store of completed cell results.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
}

/// Outcome of a store lookup.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// A valid entry for this key and code version. Boxed: a result
    /// carries full stall/occupancy breakdowns, far larger than the
    /// data-free variants.
    Hit(Box<TimedResult>),
    /// No entry (or an unreadable one, which was discarded).
    Miss,
    /// An entry existed but was written by a different code version; it
    /// has been invalidated (deleted), not served.
    Stale,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// The directory-creation error.
    pub fn open(root: &Path) -> std::io::Result<ResultStore> {
        std::fs::create_dir_all(root)?;
        Ok(ResultStore { root: root.to_owned() })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.json"))
    }

    /// Looks a cell up by its identity key under the given code version.
    pub fn lookup(&self, key: &str, code_version: &str) -> Lookup {
        let path = self.entry_path(key);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Lookup::Miss;
        };
        match Json::parse(&text).ok().as_ref().and_then(parse_entry) {
            Some((entry_code, result)) if entry_code == code_version => {
                Lookup::Hit(Box::new(result))
            }
            Some(_) => {
                // Written by another build: a 64-bit key collision across
                // versions must invalidate, not serve.
                let _ = std::fs::remove_file(&path);
                Lookup::Stale
            }
            None => {
                let _ = std::fs::remove_file(&path);
                Lookup::Miss
            }
        }
    }

    /// Stores a cell result under its identity key.
    ///
    /// # Errors
    ///
    /// The underlying write error (callers surface it as `error[io]`; a
    /// failed insert never corrupts an existing entry thanks to the
    /// atomic write).
    pub fn insert(
        &self,
        key: &str,
        code_version: &str,
        result: &TimedResult,
    ) -> std::io::Result<()> {
        let mut entry = format!(
            "{{\"ce_result\": {ENTRY_VERSION}, \"key\": \"{}\", \"code_version\": \"{}\", \
             \"wall_us\": {}, \"stats\": {}",
            json::escape(key),
            json::escape(code_version),
            result.wall.as_micros(),
            stats_to_json(&result.stats),
        );
        if let Some(sampled) = &result.sampled {
            entry.push_str(", \"sampled\": ");
            entry.push_str(&sampled_to_json(sampled));
        }
        entry.push('}');
        write_atomic(&self.entry_path(key), &entry)
    }

    /// Number of entries currently on disk.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.root)
            .map(|dir| {
                dir.flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Backs a sweep with this store: keys every cell under `code`
    /// (fingerprinting the job's unmemoized traces in parallel first),
    /// serves the hits as the sweep's prefill, and wraps `then` in a hook
    /// that first inserts each freshly simulated cell. A successful
    /// insert is announced as [`Event::StoreWrite`] — the event means the
    /// cell is durably settled; a failed one is recorded (first failure
    /// wins) in [`BackedSweep::insert_error`] and the sweep goes on.
    ///
    /// # Errors
    ///
    /// A cell whose key cannot be computed (its trace failed to
    /// generate), named by index.
    pub fn back_sweep(
        self: &Arc<Self>,
        code: &str,
        jobs: &[Job],
        max_insts: u64,
        run: RunOptions,
        tel: &Telemetry,
        then: CellHook,
    ) -> Result<BackedSweep, String> {
        fingerprint_traces(jobs, max_insts);
        let mut keys = Vec::with_capacity(jobs.len());
        let mut prefill = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let key =
                cell_key_with(code, job, max_insts, run).map_err(|e| format!("cell {i}: {e}"))?;
            prefill.push(match self.lookup(&key, code) {
                Lookup::Hit(result) => Some(*result),
                Lookup::Miss | Lookup::Stale => None,
            });
            keys.push(key);
        }
        let insert_error: Arc<Mutex<Option<String>>> = Arc::default();
        let on_cell = {
            let (store, code, tel) = (Arc::clone(self), code.to_owned(), tel.clone());
            let insert_error = Arc::clone(&insert_error);
            CellHook::new(move |i, result| {
                let start = Instant::now();
                match store.insert(&keys[i], &code, result) {
                    Ok(()) => tel.emit(Event::StoreWrite {
                        cell: i,
                        write_us: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
                    }),
                    Err(e) => {
                        let mut slot = insert_error.lock().expect("insert error slot");
                        slot.get_or_insert_with(|| format!("storing cell {i}: {e}"));
                    }
                }
                then.call(i, result);
            })
        };
        Ok(BackedSweep { prefill, on_cell, insert_error })
    }
}

/// A sweep's share of a [`ResultStore`] (see [`ResultStore::back_sweep`]).
#[derive(Debug)]
pub struct BackedSweep {
    /// The cells the store already holds, input order — the sweep's
    /// `SweepOptions::prefill`.
    pub prefill: Vec<Option<TimedResult>>,
    /// Stores every freshly simulated cell, then runs the caller's hook —
    /// the sweep's `SweepOptions::on_cell`.
    pub on_cell: CellHook,
    /// The first failed insert, if any. Shared with `on_cell`; read it
    /// after the sweep.
    pub insert_error: Arc<Mutex<Option<String>>>,
}

/// Structural validation of one store entry's text against the key its
/// filename claims (`<key>.json`), for `fsck`: the entry must parse
/// completely *and* embed the same key — a mismatch means the file was
/// renamed, truncated-and-rewritten, or otherwise tampered with, and
/// serving it would silently answer the wrong cell.
///
/// # Errors
///
/// A one-line description of what is wrong.
pub fn validate_entry_text(text: &str, key: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("unparseable entry: {e}"))?;
    if doc.at("ce_result").and_then(Json::as_u64) != Some(ENTRY_VERSION) {
        return Err("missing or wrong ce_result version tag".into());
    }
    match doc.at("key").and_then(Json::as_str) {
        Some(embedded) if embedded == key => {}
        Some(embedded) => {
            return Err(format!("embedded key {embedded} does not match filename key {key}"))
        }
        None => return Err("entry has no embedded key".into()),
    }
    parse_entry(&doc).map(drop).ok_or_else(|| "stats block incomplete or ill-typed".into())
}

fn parse_entry(doc: &Json) -> Option<(String, TimedResult)> {
    if doc.at("ce_result").and_then(Json::as_u64) != Some(ENTRY_VERSION) {
        return None;
    }
    let code = doc.at("code_version").and_then(Json::as_str)?.to_owned();
    let stats = stats_from_json(doc.at("stats")?)?;
    let sampled = match doc.at("sampled") {
        Some(s) => Some(sampled_from_json(s)?),
        None => None,
    };
    let wall = Duration::from_micros(doc.at("wall_us").and_then(Json::as_u64)?);
    Some((code, TimedResult { stats, sampled, wall }))
}

/// Serializes every [`SimStats`] counter to a JSON object, losslessly.
fn stats_to_json(s: &SimStats) -> String {
    let hist =
        s.issue_histogram.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    let stalls = StallCause::ALL
        .iter()
        .map(|&c| s.stall_breakdown.get(c).to_string())
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"cycles\": {}, \"committed\": {}, \"issued\": {}, \"branches\": {}, \
         \"mispredictions\": {}, \"loads\": {}, \"stores\": {}, \"dcache_misses\": {}, \
         \"dcache_accesses\": {}, \"forwarded_loads\": {}, \"intercluster_bypasses\": {}, \
         \"dispatch_stall_cycles\": {}, \"scheduler_stalls\": {}, \"inflight_stalls\": {}, \
         \"preg_stalls\": {}, \"occupancy_sum\": {}, \"wrong_path_fetched\": {}, \
         \"wrong_path_issued\": {}, \"issue_histogram\": [{}], \"stall_breakdown\": [{}]}}",
        s.cycles,
        s.committed,
        s.issued,
        s.branches,
        s.mispredictions,
        s.loads,
        s.stores,
        s.dcache_misses,
        s.dcache_accesses,
        s.forwarded_loads,
        s.intercluster_bypasses,
        s.dispatch_stall_cycles,
        s.scheduler_stalls,
        s.inflight_stalls,
        s.preg_stalls,
        s.occupancy_sum,
        s.wrong_path_fetched,
        s.wrong_path_issued,
        hist,
        stalls,
    )
}

/// Serializes a [`SampledStats`] measurement to a JSON object,
/// losslessly.
fn sampled_to_json(s: &SampledStats) -> String {
    format!(
        "{{\"total_insts\": {}, \"windows\": {}, \"detailed_insts\": {}, \
         \"measured_insts\": {}, \"measured_cycles\": {}, \"est_cycles\": {}, \
         \"exact\": {}}}",
        s.total_insts,
        s.windows,
        s.detailed_insts,
        s.measured_insts,
        s.measured_cycles,
        s.est_cycles,
        s.exact,
    )
}

/// Reads a [`sampled_to_json`] object back; `None` on any missing or
/// ill-typed field.
fn sampled_from_json(doc: &Json) -> Option<SampledStats> {
    let field = |name: &str| doc.at(name).and_then(Json::as_u64);
    Some(SampledStats {
        total_insts: field("total_insts")?,
        windows: u32::try_from(field("windows")?).ok()?,
        detailed_insts: field("detailed_insts")?,
        measured_insts: field("measured_insts")?,
        measured_cycles: field("measured_cycles")?,
        est_cycles: field("est_cycles")?,
        exact: doc.at("exact")?.as_bool()?,
    })
}

/// Reads a [`stats_to_json`] object back; `None` on any missing or
/// ill-typed field.
fn stats_from_json(doc: &Json) -> Option<SimStats> {
    let field = |name: &str| doc.at(name).and_then(Json::as_u64);
    let mut s = SimStats {
        cycles: field("cycles")?,
        committed: field("committed")?,
        issued: field("issued")?,
        branches: field("branches")?,
        mispredictions: field("mispredictions")?,
        loads: field("loads")?,
        stores: field("stores")?,
        dcache_misses: field("dcache_misses")?,
        dcache_accesses: field("dcache_accesses")?,
        forwarded_loads: field("forwarded_loads")?,
        intercluster_bypasses: field("intercluster_bypasses")?,
        dispatch_stall_cycles: field("dispatch_stall_cycles")?,
        scheduler_stalls: field("scheduler_stalls")?,
        inflight_stalls: field("inflight_stalls")?,
        preg_stalls: field("preg_stalls")?,
        occupancy_sum: field("occupancy_sum")?,
        wrong_path_fetched: field("wrong_path_fetched")?,
        wrong_path_issued: field("wrong_path_issued")?,
        ..SimStats::default()
    };
    let hist = doc.at("issue_histogram")?.as_arr()?;
    if hist.len() != s.issue_histogram.len() {
        return None;
    }
    for (slot, v) in s.issue_histogram.iter_mut().zip(hist) {
        *slot = v.as_u64()?;
    }
    let stalls = doc.at("stall_breakdown")?.as_arr()?;
    if stalls.len() != StallCause::COUNT {
        return None;
    }
    for (&cause, v) in StallCause::ALL.iter().zip(stalls) {
        s.stall_breakdown.charge(cause, v.as_u64()?);
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::cell_key_with;
    use crate::runner::{run_sweep_ft, RunOptions, SweepOptions};
    use ce_workloads::Benchmark;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ce-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn one_result() -> TimedResult {
        let jobs = vec![(Benchmark::Compress, ce_sim::machine::baseline_8way())];
        let summary = run_sweep_ft(&jobs, 2_000, &SweepOptions::default()).unwrap();
        summary.cells[0].clone().unwrap()
    }

    /// Round-trip through the store: stats (including histogram and
    /// stall breakdown) and wall time survive; a second lookup still
    /// hits; unknown keys miss.
    #[test]
    fn insert_then_lookup_round_trips() {
        let dir = tmpdir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let result = one_result();
        let job = (Benchmark::Compress, ce_sim::machine::baseline_8way());
        let key = cell_key_with("v1", &job, 2_000, RunOptions::default()).unwrap();
        store.insert(&key, "v1", &result).unwrap();
        assert_eq!(store.len(), 1);
        match store.lookup(&key, "v1") {
            Lookup::Hit(got) => {
                assert_eq!(got.stats, result.stats);
                assert_eq!(got.sampled, result.sampled);
                assert_eq!(got.wall.as_micros(), result.wall.as_micros());
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(store.lookup("feedfacefeedface", "v1"), Lookup::Miss));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The stale-cache hazard regression (satellite 6): an entry written
    /// under one code version is *invalidated* — not served — when looked
    /// up under another, and the file is gone afterwards so the next
    /// lookup is a plain miss that will re-run the cell.
    #[test]
    fn code_version_change_invalidates_instead_of_serving() {
        let dir = tmpdir("stale");
        let store = ResultStore::open(&dir).unwrap();
        let result = one_result();
        store.insert("00deadbeef00", "build-A", &result).unwrap();
        assert!(matches!(store.lookup("00deadbeef00", "build-B"), Lookup::Stale));
        assert_eq!(store.len(), 0, "stale entry must be deleted");
        assert!(matches!(store.lookup("00deadbeef00", "build-B"), Lookup::Miss));
        // Same-version lookups still work end to end.
        store.insert("00deadbeef00", "build-B", &result).unwrap();
        assert!(matches!(store.lookup("00deadbeef00", "build-B"), Lookup::Hit(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every counter survives the JSON codec exactly, including ones far
    /// above the f64 mantissa, and a sampled measurement rides along
    /// beside an exact cell's absent one in the same store.
    #[test]
    fn stats_and_sampled_blocks_round_trip_losslessly() {
        let mut stats = SimStats {
            cycles: 1003,
            committed: 2003,
            occupancy_sum: u64::MAX / 3,
            ..SimStats::default()
        };
        stats.issue_histogram[3] = 20;
        stats.stall_breakdown.charge(StallCause::OperandWait, 43);
        let back = stats_from_json(&Json::parse(&stats_to_json(&stats)).unwrap()).unwrap();
        assert_eq!(back, stats);

        let dir = tmpdir("sampled");
        let store = ResultStore::open(&dir).unwrap();
        let sampled = SampledStats {
            total_insts: 1_000_000,
            windows: 326,
            detailed_insts: 250_000,
            measured_insts: 166_912,
            measured_cycles: 61_234,
            est_cycles: 366_894,
            exact: false,
        };
        let wall = Duration::from_micros(3);
        let sampled_cell = TimedResult { stats: stats.clone(), sampled: Some(sampled), wall };
        store.insert("aa", "v1", &sampled_cell).unwrap();
        store.insert("bb", "v1", &TimedResult { stats, sampled: None, wall }).unwrap();
        let Lookup::Hit(got) = store.lookup("aa", "v1") else { panic!("sampled cell stored") };
        assert_eq!((got.sampled, got.wall), (Some(sampled), wall));
        let Lookup::Hit(got) = store.lookup("bb", "v1") else { panic!("exact cell stored") };
        assert!(got.sampled.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store-backed sweep stores what it simulates and serves it back:
    /// the second sweep over the same grid is all prefill, and a
    /// different instruction cap (a different cell key) misses.
    #[test]
    fn back_sweep_serves_what_it_stored() {
        let dir = tmpdir("backed");
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let jobs = vec![
            (Benchmark::Compress, ce_sim::machine::baseline_8way()),
            (Benchmark::Li, ce_sim::machine::baseline_8way()),
        ];
        let tel = Telemetry::default();
        let run = RunOptions::default();
        let back =
            |cap| store.back_sweep("v1", &jobs, cap, run, &tel, CellHook::default()).unwrap();
        let sweep = |backed: BackedSweep| {
            let opts = SweepOptions {
                prefill: backed.prefill,
                on_cell: backed.on_cell,
                ..SweepOptions::default()
            };
            let summary = run_sweep_ft(&jobs, 2_000, &opts).unwrap();
            assert!(backed.insert_error.lock().unwrap().is_none());
            summary
        };
        let first = sweep(back(2_000));
        assert_eq!((first.resumed, store.len()), (0, 2));
        let second = sweep(back(2_000));
        assert_eq!(second.resumed, 2, "every cell served from the store");
        for (a, b) in first.ok_cells().zip(second.ok_cells()) {
            assert_eq!(a.stats, b.stats);
        }
        assert!(back(3_000).prefill.iter().all(Option::is_none), "another cap, other keys");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupt entries read back as misses and are cleaned up.
    #[test]
    fn corruption_is_a_miss() {
        let dir = tmpdir("corrupt");
        let store = ResultStore::open(&dir).unwrap();
        std::fs::write(store.root().join("abc.json"), "{\"ce_result\": 1, \"tr").unwrap();
        assert!(matches!(store.lookup("abc", "v1"), Lookup::Miss));
        assert_eq!(store.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
