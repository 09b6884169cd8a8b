//! The benchmark's own spans: one around every public call it makes into
//! a layer of the workspace, kept in memory and written out at the end.
//!
//! Every call is timed in both modes (the timings feed the per-layer
//! metrics); spans are stored only in a traced run. A layer's self time
//! is its span time minus the part covered by its child spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

struct SpanRec {
    layer: &'static str,
    name: &'static str,
    start: Duration,
    dur: Duration,
    parent: Option<usize>,
    /// Operations the span covers (1 for a single call; an aggregated
    /// span, such as one open-loop phase, covers many requests).
    count: u64,
}

struct State {
    on: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State {
        on: false,
        t0: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Turns span recording on for this thread.
pub fn enable() {
    STATE.with(|s| s.borrow_mut().on = true);
}

/// Runs `f` as one call into `layer`, returning its result and its
/// wall time in seconds.
pub fn time<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    time_n(layer, name, 1, f)
}

/// [`time`] for a span that covers `count` operations.
pub fn time_n<T>(
    layer: &'static str,
    name: &'static str,
    count: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let idx = STATE.with(|s| {
        let mut s = s.borrow_mut();
        if !s.on {
            return None;
        }
        let start = s.t0.elapsed();
        let parent = s.stack.last().copied();
        s.spans.push(SpanRec {
            layer,
            name,
            start,
            dur: Duration::ZERO,
            parent,
            count,
        });
        let idx = s.spans.len() - 1;
        s.stack.push(idx);
        Some(idx)
    });
    let t0 = Instant::now();
    let out = f();
    let dur = t0.elapsed();
    if let Some(idx) = idx {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.spans[idx].dur = dur;
            s.stack.pop();
        });
    }
    (out, dur.as_secs_f64())
}

/// One row of the per-layer table.
pub struct LayerRow {
    pub layer: &'static str,
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Per-layer count, total and self time over the recorded spans, in
/// descending self time.
pub fn layer_table() -> Vec<LayerRow> {
    STATE.with(|s| {
        let s = s.borrow();
        let mut child_ms = vec![0.0f64; s.spans.len()];
        for sp in &s.spans {
            if let Some(p) = sp.parent {
                child_ms[p] += sp.dur.as_secs_f64() * 1e3;
            }
        }
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (i, sp) in s.spans.iter().enumerate() {
            let total = sp.dur.as_secs_f64() * 1e3;
            let row = rows.entry(sp.layer).or_insert(LayerRow {
                layer: sp.layer,
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            row.count += sp.count;
            // A child inside the same layer is not double counted: the
            // parent's total already covers it.
            let nested_same = sp.parent.is_some_and(|p| s.spans[p].layer == sp.layer);
            if !nested_same {
                row.total_ms += total;
            }
            row.self_ms += total - child_ms[i];
        }
        let mut rows: Vec<LayerRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
        rows
    })
}

/// Writes every recorded span as one JSON line to `path`.
pub fn write_spans(path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    STATE.with(|s| -> std::io::Result<()> {
        for (i, sp) in s.borrow().spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"count\":{}}}",
                sp.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                sp.layer,
                sp.name,
                sp.start.as_micros(),
                sp.dur.as_micros(),
                sp.count
            )?;
        }
        Ok(())
    })?;
    out.flush()
}

/// Totals of the spans the program itself journals while a trace
/// session is live (`mgbr_obs`), read back from its JSONL file.
#[derive(Default)]
pub struct Journal {
    /// Span name → (count, total µs).
    pub spans: BTreeMap<String, (u64, u64)>,
    /// `queued_us` of every journaled `serve.request`.
    pub queued_us: Vec<f64>,
    /// `scored_us` of every journaled `serve.request`.
    pub scored_us: Vec<f64>,
}

impl Journal {
    /// Adds every span of the JSONL journal at `path`.
    pub fn absorb(&mut self, path: &Path) -> Result<(), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read journal {}: {e}", path.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let rec = mgbr_json::Json::parse(line)
                .map_err(|e| format!("journal line does not parse ({e:?}): {line}"))?;
            if rec.get("type").and_then(|t| t.as_str()) != Some("span") {
                continue;
            }
            let name = rec.get("name").and_then(|n| n.as_str()).unwrap_or("");
            let dur = rec.get("dur_us").and_then(|d| d.as_f64()).unwrap_or(0.0);
            let e = self.spans.entry(name.to_string()).or_insert((0, 0));
            e.0 += 1;
            e.1 += dur as u64;
            if name == "serve.request" {
                let args = rec.get("args");
                let arg = |k: &str| args.and_then(|a| a.get(k)).and_then(|v| v.as_f64());
                if let (Some(q), Some(s)) = (arg("queued_us"), arg("scored_us")) {
                    self.queued_us.push(q);
                    self.scored_us.push(s);
                }
            }
        }
        Ok(())
    }

    /// Total milliseconds journaled under span `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |&(_, us)| us as f64 / 1e3)
    }
}
