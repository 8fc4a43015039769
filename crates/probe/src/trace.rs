//! Span-tree capture and Chrome trace-event export.
//!
//! [`ChromeTraceSink`] buffers every completed span (and gauge sample) and
//! renders the run as Chrome trace-event JSON — the `traceEvents` array
//! format that both `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
//! load directly. Spans become complete (`"ph":"X"`) events laid out per
//! thread track; cross-thread parent links (a farm worker span parenting
//! under the submitting request) additionally render as flow arrows
//! (`"ph":"s"` / `"ph":"f"`), and gauges as counter tracks (`"ph":"C"`).

use crate::{epoch_ns, Sink, SpanEvent};
use ape_json::escape;
use std::path::PathBuf;
use std::sync::Mutex;

/// An owned copy of a completed span, as buffered by [`ChromeTraceSink`]
/// or parsed back from a JSONL trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Process-unique span ID.
    pub id: u64,
    /// Parent span ID, if any.
    pub parent: Option<u64>,
    /// Dense thread index the span ran on.
    pub tid: u64,
    /// Nesting depth on the opening thread.
    pub depth: usize,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

impl From<&SpanEvent> for SpanRecord {
    fn from(ev: &SpanEvent) -> Self {
        SpanRecord {
            name: ev.name.to_string(),
            id: ev.id,
            parent: ev.parent,
            tid: ev.tid,
            depth: ev.depth,
            start_ns: ev.start_ns,
            dur_ns: ev.dur_ns,
        }
    }
}

/// One gauge sample with its capture timestamp, for counter tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Gauge name.
    pub name: &'static str,
    /// Sample time, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Sampled level.
    pub value: f64,
}

#[derive(Debug, Default)]
struct Buffers {
    spans: Vec<SpanRecord>,
    gauges: Vec<GaugeSample>,
}

/// A [`Sink`] that buffers the span tree and renders it as Chrome
/// trace-event JSON. Counters and values are ignored (the registry-backed
/// [`SummarySink`](crate::SummarySink) covers those); gauges become
/// Perfetto counter tracks.
///
/// With a file target ([`ChromeTraceSink::to_file`]) the trace is written
/// on [`Sink::flush_events`] — which [`crate::finish`], [`crate::uninstall`]
/// and the panic hook all trigger.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    buffers: Mutex<Buffers>,
    path: Option<PathBuf>,
}

impl ChromeTraceSink {
    /// Buffers in memory only; retrieve with [`ChromeTraceSink::render`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers in memory and writes the rendered trace to `path` when
    /// flushed. No I/O happens before then, so construction cannot fail.
    pub fn to_file(path: impl Into<PathBuf>) -> Self {
        ChromeTraceSink {
            buffers: Mutex::new(Buffers::default()),
            path: Some(path.into()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Buffers> {
        self.buffers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The spans buffered so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Renders the buffered run as Chrome trace-event JSON.
    pub fn render(&self) -> String {
        let buf = self.lock();
        render_chrome_trace_with_gauges(&buf.spans, &buf.gauges)
    }
}

impl Sink for ChromeTraceSink {
    fn on_span(&self, ev: &SpanEvent) {
        self.lock().spans.push(ev.into());
    }

    fn on_counter(&self, _name: &'static str, _delta: u64) {}

    fn on_value(&self, _name: &'static str, _v: f64) {}

    fn on_gauge(&self, name: &'static str, v: f64) {
        self.lock().gauges.push(GaugeSample {
            name,
            ts_ns: epoch_ns(),
            value: v,
        });
    }

    fn flush_events(&self) {
        if let Some(path) = &self.path {
            if let Err(e) = std::fs::write(path, self.render()) {
                eprintln!(
                    "ape-probe: cannot write chrome trace {}: {e}",
                    path.display()
                );
            }
        }
    }

    fn render_report(&self) -> Option<String> {
        self.path.as_ref().map(|p| {
            let n = self.lock().spans.len();
            format!(
                "chrome trace: {n} spans -> {} (load in ui.perfetto.dev)",
                p.display()
            )
        })
    }
}

/// Microseconds with nanosecond fraction, the unit Chrome traces use.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders spans as Chrome trace-event JSON (no counter tracks).
///
/// Events are sorted by `(start_ns, id)` so the output is a deterministic
/// function of the record set.
pub fn render_chrome_trace(spans: &[SpanRecord]) -> String {
    render_chrome_trace_with_gauges(spans, &[])
}

/// Renders spans plus gauge counter tracks as Chrome trace-event JSON.
pub fn render_chrome_trace_with_gauges(spans: &[SpanRecord], gauges: &[GaugeSample]) -> String {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));

    let mut events: Vec<String> = Vec::with_capacity(sorted.len() + 2 * gauges.len());
    for s in &sorted {
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".into(),
        };
        events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{parent},\"depth\":{}}}}}",
            escape(&s.name),
            s.tid,
            us(s.start_ns),
            us(s.dur_ns),
            s.id,
            s.depth,
        ));
        // Cross-thread parent links render as flow arrows from the parent
        // span's track to this span's start.
        if let Some(pid) = s.parent {
            if let Some(p) = spans.iter().find(|c| c.id == pid) {
                if p.tid != s.tid {
                    events.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"s\",\"pid\":1,\"tid\":{},\"ts\":{},\"id\":{}}}",
                        escape(&p.name),
                        p.tid,
                        us(p.start_ns),
                        s.id,
                    ));
                    events.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":{},\"ts\":{},\"id\":{}}}",
                        escape(&p.name),
                        s.tid,
                        us(s.start_ns),
                        s.id,
                    ));
                }
            }
        }
    }
    for g in gauges {
        let v = if g.value.is_finite() { g.value } else { 0.0 };
        events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":1,\"ts\":{},\"args\":{{\"value\":{v}}}}}",
            escape(g.name),
            us(g.ts_ns),
        ));
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, id: u64, parent: Option<u64>, tid: u64, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            id,
            parent,
            tid,
            depth: 0,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn renders_complete_events_sorted() {
        let spans = vec![
            rec("later", 2, Some(1), 0, 5_000, 1_000),
            rec("first", 1, None, 0, 1_000, 10_000),
        ];
        let json = render_chrome_trace(&spans);
        let first = json.find("\"name\":\"first\"").expect("first present");
        let later = json.find("\"name\":\"later\"").expect("later present");
        assert!(first < later, "events sorted by start time");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":10.000"));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ns\"}\n"));
    }

    #[test]
    fn cross_thread_parent_gets_flow_arrows() {
        let spans = vec![
            rec("submit", 1, None, 0, 0, 100_000),
            rec("farm.job", 2, Some(1), 3, 10_000, 50_000),
        ];
        let json = render_chrome_trace(&spans);
        assert!(json.contains("\"ph\":\"s\""), "flow start:\n{json}");
        assert!(json.contains("\"ph\":\"f\""), "flow finish:\n{json}");
        // Same-thread nesting needs no arrows.
        let same = vec![
            rec("outer", 1, None, 0, 0, 100),
            rec("inner", 2, Some(1), 0, 10, 50),
        ];
        assert!(!render_chrome_trace(&same).contains("\"ph\":\"s\""));
    }

    #[test]
    fn sink_buffers_spans_and_gauges() {
        let sink = ChromeTraceSink::new();
        sink.on_span(&SpanEvent {
            name: "t.span",
            id: 7,
            parent: None,
            tid: 0,
            depth: 0,
            start_ns: 100,
            dur_ns: 50,
        });
        sink.on_gauge("t.depth", 3.0);
        sink.on_counter("ignored", 1);
        let json = sink.render();
        assert!(json.contains("t.span"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(!json.contains("ignored"));
        assert_eq!(sink.spans().len(), 1);
    }
}
