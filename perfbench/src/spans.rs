//! In-memory span recording around the benchmark's calls into each
//! layer, exported at the end as Chrome `trace_event` JSON (the format
//! `ce_bench::telemetry` writes). Off by default: a disabled recorder
//! costs one atomic load per call site.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval. Times are microseconds since the recorder's
/// epoch; `end_us` is `None` while the span is open.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub start_us: u64,
    pub end_us: Option<u64>,
    pub parent: Option<usize>,
    /// Request id: the daemon's job id for service spans.
    pub req: Option<u64>,
    /// Recording thread lane (Chrome `tid`).
    pub lane: usize,
}

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static LANES: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn micros(at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch()).as_micros()).unwrap_or(u64::MAX)
}

fn lane() -> usize {
    let id = std::thread::current().id();
    let mut lanes = LANES.lock().expect("span lanes poisoned");
    match lanes.iter().position(|&l| l == id) {
        Some(i) => i,
        None => {
            lanes.push(id);
            lanes.len() - 1
        }
    }
}

/// Turns recording on or off for everything that follows.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Opens a span now; `None` when recording is off.
pub fn begin(
    layer: &'static str,
    name: impl Into<String>,
    parent: Option<usize>,
    req: Option<u64>,
) -> Option<usize> {
    if !enabled() {
        return None;
    }
    let span = Span {
        layer,
        name: name.into(),
        start_us: micros(Instant::now()),
        end_us: None,
        parent,
        req,
        lane: lane(),
    };
    let mut spans = SPANS.lock().expect("spans poisoned");
    spans.push(span);
    Some(spans.len() - 1)
}

/// Closes a span opened by [`begin`] (no-op for `None`).
pub fn end(id: Option<usize>) {
    if let Some(id) = id {
        let now = micros(Instant::now());
        SPANS.lock().expect("spans poisoned")[id].end_us = Some(now);
    }
}

/// Records a finished interval after the fact (a cell the runner timed,
/// a protocol event the client saw).
pub fn record(
    layer: &'static str,
    name: impl Into<String>,
    start: Instant,
    end_at: Instant,
    parent: Option<usize>,
    req: Option<u64>,
) {
    if !enabled() {
        return;
    }
    let span = Span {
        layer,
        name: name.into(),
        start_us: micros(start),
        end_us: Some(micros(end_at)),
        parent,
        req,
        lane: lane(),
    };
    SPANS.lock().expect("spans poisoned").push(span);
}

/// Takes every recorded span, leaving the recorder empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("spans poisoned"))
}

/// Self time per layer, in microseconds. For each outermost span of a
/// layer (no parent, or a parent in another layer): its duration minus
/// the part of its interval that descendant spans of *other* layers
/// cover. Spans of the same layer nested inside it (a submit's protocol
/// events) are part of its own time; other-layer spans below them are
/// still subtracted. Overlapping children (cells on parallel workers) are
/// subtracted once, as a union.
pub fn self_time_us(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let Some(end_us) = s.end_us else { continue };
        if s.parent.is_some_and(|p| spans[p].layer == s.layer) {
            continue;
        }
        let mut foreign = Vec::new();
        let mut stack = children[i].clone();
        while let Some(c) = stack.pop() {
            if spans[c].layer == s.layer {
                stack.extend_from_slice(&children[c]);
            } else {
                foreign.push(c);
            }
        }
        let mut covered: Vec<(u64, u64)> = foreign
            .iter()
            .filter_map(|&c| {
                let c = &spans[c];
                let (a, b) = (c.start_us.max(s.start_us), c.end_us?.min(end_us));
                (a < b).then_some((a, b))
            })
            .collect();
        covered.sort_unstable();
        let mut union = 0;
        let mut reach = s.start_us;
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                union += b - a;
                reach = b;
            }
        }
        *out.entry(s.layer).or_insert(0) += (end_us - s.start_us).saturating_sub(union);
    }
    out
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Chrome `trace_event` JSON: one complete (`X`) event per closed span,
/// one lane per recording thread, layer as the category, parent and
/// request id as arguments.
pub fn chrome_json(title: &str, spans: &[Span]) -> String {
    let mut events = vec![format!(
        "{{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
         \"args\": {{\"name\": \"{}\"}}}}",
        escape(title)
    )];
    for (i, s) in spans.iter().enumerate() {
        let Some(end_us) = s.end_us else { continue };
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let req = s.req.map_or("null".to_owned(), |r| r.to_string());
        events.push(format!(
            "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
             \"name\": \"{}\", \"cat\": \"{}\", \"args\": {{\"span\": {i}, \
             \"parent\": {parent}, \"req\": {req}}}}}",
            s.lane,
            s.start_us,
            end_us - s.start_us,
            escape(&s.name),
            s.layer,
        ));
    }
    format!(
        "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: layer.into(),
            start_us,
            end_us: Some(end_us),
            parent,
            req: None,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("runner", 0, 100, None),
            span("sim", 10, 60, Some(0)),
            span("sim", 40, 80, Some(0)),
        ];
        let self_us = self_time_us(&spans);
        assert_eq!(self_us["runner"], 30);
        assert_eq!(self_us["sim"], 90);
    }

    #[test]
    fn same_layer_children_count_as_own_time() {
        let spans = vec![
            span("service", 0, 100, None),
            span("service", 0, 40, Some(0)),
            span("service", 40, 100, Some(0)),
            span("store", 50, 70, Some(2)),
        ];
        let self_us = self_time_us(&spans);
        assert_eq!(self_us["service"], 80);
        assert_eq!(self_us["store"], 20);
    }

    #[test]
    fn chrome_export_parses() {
        let spans = vec![span("runner", 0, 100, None), span("sim", 10, 60, Some(0))];
        let doc = ce_bench::json::Json::parse(&chrome_json("t \"q\"", &spans)).expect("json");
        let events = doc
            .at("traceEvents")
            .and_then(ce_bench::json::Json::as_arr)
            .expect("arr");
        assert_eq!(events.len(), 3);
    }
}
