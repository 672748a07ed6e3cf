//! In-memory span tracer for the traced run, and the trace-file writer.
//!
//! The harness opens a span around every call it makes into a layer. Spans
//! are kept in memory and written out once, after the measured window.
//! A span's self time is its duration minus the part its child spans
//! cover, so the self times of all spans add up to the root's duration.

use apple_telemetry::json::{write_num, write_str};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps (`journal.step`, `engine.plan`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round of the workload the span belongs to.
    pub rep: u32,
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations (ns).
    pub total_ns: u64,
    /// Sum of their self times (ns).
    pub self_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Records spans when on; costs one branch per call when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Sets the round number stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`]. Spans close innermost
    /// first; closing an outer span closes the ones still open inside it.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// seconds. The duration is measured whether or not tracing is on, so
    /// the untraced run times its operations through the same call.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children of one parent never overlap — the tracer is a stack).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Calls, total and self time per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let a = out.entry(s.name).or_default();
        a.calls += 1;
        a.total_ns += s.end_ns - s.start_ns;
        a.self_ns += own;
    }
    out
}

/// Everything one traced run writes to `out/trace-<workload>.json`.
#[derive(Debug)]
pub struct TraceFile<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Provenance pairs (`seed`, `nproc`, `git`, ...), written verbatim.
    pub context: &'a [(String, String)],
    /// Harness spans.
    pub spans: &'a [Span],
    /// Spans the program recorded itself (`span.*` histograms of the
    /// `MemoryRecorder`): name → (calls, total ms). They carry no
    /// timestamps, so they appear as totals only.
    pub program_spans: &'a BTreeMap<String, (u64, f64)>,
    /// The per-layer metrics of the result line.
    pub layers: &'a [(&'static str, f64, &'static str)],
    /// Wall of the traced rounds (s).
    pub traced_wall_s: f64,
    /// (traced − untraced) ÷ untraced wall of the same round, in percent.
    pub trace_overhead_pct: f64,
}

impl TraceFile<'_> {
    /// Serialises the trace as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 96);
        out.push_str("{\n  \"workload\": ");
        write_str(&mut out, self.workload);
        out.push_str(",\n  \"context\": {");
        for (i, (k, v)) in self.context.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { ", " });
            write_str(&mut out, k);
            out.push_str(": ");
            write_str(&mut out, v);
        }
        out.push_str("},\n  \"traced_wall_s\": ");
        write_num(&mut out, self.traced_wall_s);
        out.push_str(",\n  \"trace_overhead_pct\": ");
        write_num(&mut out, self.trace_overhead_pct);
        // Self times partition the root spans, so the two sums agree up to
        // spans left open; printing both lets a reader check the accounting.
        let own: u64 = self_times(self.spans).iter().sum();
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        out.push_str(",\n  \"self_ms_total\": ");
        write_num(&mut out, own as f64 / 1e6);
        out.push_str(",\n  \"root_ms_total\": ");
        write_num(&mut out, roots as f64 / 1e6);
        out.push_str(",\n  \"by_name\": {");
        for (i, (name, a)) in by_name(self.spans).iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            write_str(&mut out, name);
            out.push_str(": {\"calls\": ");
            write_num(&mut out, a.calls as f64);
            out.push_str(", \"total_ms\": ");
            write_num(&mut out, a.total_ns as f64 / 1e6);
            out.push_str(", \"self_ms\": ");
            write_num(&mut out, a.self_ns as f64 / 1e6);
            out.push('}');
        }
        out.push_str("\n  },\n  \"program_spans\": {");
        for (i, (name, (calls, ms))) in self.program_spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            write_str(&mut out, name);
            out.push_str(": {\"calls\": ");
            write_num(&mut out, *calls as f64);
            out.push_str(", \"total_ms\": ");
            write_num(&mut out, *ms);
            out.push('}');
        }
        out.push_str("\n  },\n  \"layers\": {");
        for (i, (name, value, unit)) in self.layers.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            write_str(&mut out, name);
            out.push_str(": {\"value\": ");
            write_num(&mut out, *value);
            out.push_str(", \"unit\": ");
            write_str(&mut out, unit);
            out.push('}');
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str("{\"name\": ");
            write_str(&mut out, s.name);
            out.push_str(", \"start_ns\": ");
            write_num(&mut out, s.start_ns as f64);
            out.push_str(", \"end_ns\": ");
            write_num(&mut out, s.end_ns as f64);
            out.push_str(", \"parent\": ");
            match s.parent {
                Some(p) => write_num(&mut out, p as f64),
                None => out.push_str("null"),
            }
            out.push_str(", \"workload\": ");
            write_str(&mut out, self.workload);
            out.push_str(", \"rep\": ");
            write_num(&mut out, f64::from(s.rep));
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apple_telemetry::json::Json;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_back_to_back_children() {
        // root [0,100] ─ a [10,40] ─ a1 [15,25]
        //              └ b [40,90]   (starts the instant a ends)
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 50]);
        // Self times partition the root interval.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let agg = by_name(&spans);
        assert_eq!(
            agg["a"],
            Agg {
                calls: 1,
                total_ns: 30,
                self_ns: 20
            }
        );
    }

    #[test]
    fn tracer_nests_by_stack_and_ignores_everything_when_off() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        let (v, secs) = t.time("leaf", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let inner = t.begin("inner");
        t.end(root); // closes `inner` too
        assert_eq!(inner, Some(2));
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[2].end_ns, s[0].end_ns);
        assert!(s[0].end_ns >= s[1].end_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("x");
        off.end(id);
        assert_eq!(off.time("y", || 1).0, 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_file_round_trips_through_the_telemetry_json_parser() {
        let spans = [
            span("round", 0, 2_000_000, None),
            span("a \"quoted\" name", 500_000, 1_500_000, Some(0)),
        ];
        let mut program_spans = BTreeMap::new();
        program_spans.insert("online.step".to_string(), (3u64, 1.25f64));
        let context = [("seed".to_string(), "11".to_string())];
        let layers = [("lp.pivots", 42.0, "count"), ("x.ratio", 0.5, "ratio")];
        let file = TraceFile {
            workload: "online-churn",
            context: &context,
            spans: &spans,
            program_spans: &program_spans,
            layers: &layers,
            traced_wall_s: 0.002,
            trace_overhead_pct: -1.5,
        };
        let doc = Json::parse(&file.to_json()).expect("writer emits valid JSON");
        assert_eq!(
            doc.get("workload").and_then(Json::as_str),
            Some("online-churn")
        );
        assert_eq!(
            doc.get("context")
                .and_then(|c| c.get("seed"))
                .and_then(Json::as_str),
            Some("11")
        );
        assert_eq!(
            doc.get("trace_overhead_pct").and_then(Json::as_num),
            Some(-1.5)
        );
        assert_eq!(doc.get("self_ms_total").and_then(Json::as_num), Some(2.0));
        assert_eq!(doc.get("root_ms_total").and_then(Json::as_num), Some(2.0));
        let parsed = doc.get("spans").and_then(Json::as_arr).expect("span list");
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed[1].get("name").and_then(Json::as_str),
            Some("a \"quoted\" name")
        );
        assert_eq!(parsed[1].get("parent").and_then(Json::as_num), Some(0.0));
        assert_eq!(
            parsed[1].get("end_ns").and_then(Json::as_num),
            Some(1_500_000.0)
        );
        let round = doc
            .get("by_name")
            .and_then(|b| b.get("round"))
            .expect("round");
        assert_eq!(round.get("self_ms").and_then(Json::as_num), Some(1.0));
        assert_eq!(
            doc.get("layers")
                .and_then(|l| l.get("lp.pivots"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_num),
            Some(42.0)
        );
        assert_eq!(
            doc.get("program_spans")
                .and_then(|p| p.get("online.step"))
                .and_then(|m| m.get("total_ms"))
                .and_then(Json::as_num),
            Some(1.25)
        );
    }
}
