//! `ape-probe` — structured telemetry for the APE estimator/synthesis
//! stack.
//!
//! The paper's whole argument is about *where time goes* (APE-seeded
//! intervals cut ASTRX/OBLX synthesis time; equation/simulation anchoring
//! only works when solver convergence is visible). This crate is the
//! measurement layer every instrumented crate reports through:
//!
//! * **span trees** — hierarchical timing spans with process-unique IDs
//!   and parent links ([`span`]), propagated explicitly across thread
//!   boundaries ([`current_span`] / [`span_with_parent`]) so e.g. a farm
//!   worker's spans parent under the submitting request;
//! * **counters** — monotonic event counts ([`counter`]);
//! * **values** — scalar observations aggregated into log-linear quantile
//!   histograms ([`value`]);
//! * **gauges** — instantaneous levels such as queue depths, where the
//!   last/min/max samples matter rather than the mean ([`gauge`]).
//!
//! Aggregation happens in a lock-free [`Registry`] (sharded atomic
//! counters, HDR-style histograms with p50/p90/p99/p999), exportable as
//! Prometheus text exposition ([`render_prometheus`]) or Chrome
//! trace-event JSON loadable in Perfetto ([`render_chrome_trace`]).
//!
//! Events flow to a process-global [`Sink`]. Four are built in:
//!
//! | Sink | Behaviour |
//! |---|---|
//! | *(none installed)* | near-zero overhead: one relaxed atomic load per probe point |
//! | [`SummarySink`] | aggregates into a [`Registry`], renders a report |
//! | [`JsonLinesSink`] | one JSON object per event, for offline analysis |
//! | [`ChromeTraceSink`] | buffers the span tree, renders Perfetto-loadable JSON |
//!
//! Both JSON sinks escape names with `ape_json::escape`, the workspace's
//! one JSON string escaper.
//!
//! Binaries opt in through the `APE_TRACE` environment variable (see
//! [`install_from_env`]): `APE_TRACE=summary` prints an aggregated report
//! on exit, `APE_TRACE=jsonl[:path]` streams events, and
//! `APE_TRACE=chrome[:path]` writes a Chrome trace on [`finish`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let sink = Arc::new(ape_probe::SummarySink::new());
//! ape_probe::install(sink.clone());
//! {
//!     let _s = ape_probe::span("demo.work");
//!     ape_probe::counter("demo.events", 3);
//!     ape_probe::value("demo.cost", 0.5);
//! }
//! let report = sink.report();
//! assert!(report.contains("demo.work"));
//! assert!(report.contains("demo.events"));
//! ape_probe::uninstall();
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock, RwLock};
use std::time::Instant;

mod jsonl;
mod prometheus;
pub mod registry;
mod summary;
pub mod trace;

pub use jsonl::JsonLinesSink;
pub use prometheus::render_prometheus;
pub use registry::{
    thread_index, Counter, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, Registry,
    RegistrySnapshot, SpanSnapshot, SpanStat,
};
pub use summary::{CounterTotals, SpanAgg, SummarySink};
pub use trace::{render_chrome_trace, ChromeTraceSink, SpanRecord};

/// One completed timing span, as delivered to [`Sink::on_span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static, dot-separated).
    pub name: &'static str,
    /// Process-unique span ID (never 0, never reused).
    pub id: u64,
    /// ID of the enclosing span: the innermost open span on the opening
    /// thread, or the explicitly propagated parent for cross-thread spans.
    pub parent: Option<u64>,
    /// Dense index of the thread the span ran on ([`thread_index`]).
    pub tid: u64,
    /// Nesting depth on the opening thread at open time.
    pub depth: usize,
    /// Start time, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
}

/// Receiver for probe events. Implementations must be cheap and must never
/// panic: they run inside the hot paths they observe.
pub trait Sink: Send + Sync {
    /// A timing span completed; `ev` carries its identity, tree links, and
    /// timing.
    fn on_span(&self, ev: &SpanEvent);
    /// Counter `name` advanced by `delta`.
    fn on_counter(&self, name: &'static str, delta: u64);
    /// Scalar observation `v` recorded under `name`.
    fn on_value(&self, name: &'static str, v: f64);
    /// Instantaneous level `v` sampled under `name` (queue depths, in-flight
    /// job counts). Unlike [`Sink::on_value`], the *last* sample is the
    /// headline statistic, not the mean. Defaults to forwarding to
    /// `on_value` so gauge-unaware sinks keep working.
    fn on_gauge(&self, name: &'static str, v: f64) {
        self.on_value(name, v);
    }
    /// Renders an end-of-run report, if this sink aggregates one.
    fn render_report(&self) -> Option<String> {
        None
    }
    /// Flushes any buffered output.
    fn flush_events(&self) {}
}

/// A sink that drops every event. Installing it is equivalent to (but
/// slightly slower than) having no sink at all; it exists so call sites can
/// treat "tracing off" uniformly.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn on_span(&self, _ev: &SpanEvent) {}
    fn on_counter(&self, _name: &'static str, _delta: u64) {}
    fn on_value(&self, _name: &'static str, _v: f64) {}
    fn on_gauge(&self, _name: &'static str, _v: f64) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static PANIC_FLUSH: Once = Once::new();

thread_local! {
    /// IDs of the open spans on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the process trace epoch (anchored on first use).
pub fn epoch_ns() -> u64 {
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

/// `true` when a sink is installed and probe points are live.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the process-global event receiver, replacing any
/// previous sink. Also arms (once) a panic hook that flushes the installed
/// sink, so a panicking binary still leaves complete trace output behind.
pub fn install(sink: Arc<dyn Sink>) {
    let _ = epoch_ns(); // anchor the trace epoch before the first span
    PANIC_FLUSH.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            with_sink(|s| s.flush_events());
        }));
    });
    let mut slot = SINK.write().unwrap_or_else(|e| e.into_inner());
    *slot = Some(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes the installed sink (flushing it first) and returns it, disabling
/// all probe points.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    let mut slot = SINK.write().unwrap_or_else(|e| e.into_inner());
    ENABLED.store(false, Ordering::Relaxed);
    let prev = slot.take();
    if let Some(s) = &prev {
        s.flush_events();
    }
    prev
}

fn with_sink(f: impl FnOnce(&dyn Sink)) {
    let guard = SINK.read().unwrap_or_else(|e| e.into_inner());
    if let Some(s) = guard.as_ref() {
        f(s.as_ref());
    }
}

/// Advances counter `name` by `delta`. A single relaxed atomic load when no
/// sink is installed.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if is_enabled() {
        with_sink(|s| s.on_counter(name, delta));
    }
}

/// Records scalar observation `v` under `name`. A single relaxed atomic
/// load when no sink is installed.
#[inline]
pub fn value(name: &'static str, v: f64) {
    if is_enabled() {
        with_sink(|s| s.on_value(name, v));
    }
}

/// Samples gauge `name` at level `v` (queue depth, in-flight count). A
/// single relaxed atomic load when no sink is installed.
#[inline]
pub fn gauge(name: &'static str, v: f64) {
    if is_enabled() {
        with_sink(|s| s.on_gauge(name, v));
    }
}

/// The ID of the innermost open span on this thread, if tracing is on.
///
/// Capture this where work is *submitted* and hand it to
/// [`span_with_parent`] where the work *runs*, so spans executed on another
/// thread still parent under the submitting span in the trace tree.
#[inline]
pub fn current_span() -> Option<u64> {
    if is_enabled() {
        SPAN_STACK.with(|s| s.borrow().last().copied())
    } else {
        None
    }
}

/// Opens a timing span; the returned guard reports the elapsed wall-clock
/// time when dropped. The span parents under the innermost open span on
/// this thread. Inert (no clock read) when no sink is installed.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, None, false)
}

/// Opens a timing span with an explicitly propagated parent (typically a
/// [`current_span`] captured on the submitting thread). Nested spans opened
/// while this guard is live parent under it as usual. Inert when no sink is
/// installed.
#[inline]
pub fn span_with_parent(name: &'static str, parent: Option<u64>) -> SpanGuard {
    open_span(name, parent, true)
}

fn open_span(name: &'static str, explicit: Option<u64>, use_explicit: bool) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { live: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, depth) = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = if use_explicit {
            explicit
        } else {
            stack.last().copied()
        };
        let depth = stack.len();
        stack.push(id);
        (parent, depth)
    });
    SpanGuard {
        live: Some(LiveSpan {
            name,
            id,
            parent,
            depth,
            start_ns: epoch_ns(),
        }),
    }
}

#[derive(Debug)]
struct LiveSpan {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    depth: usize,
    start_ns: u64,
}

/// RAII guard returned by [`span`]: reports the span on drop.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// The span's process-unique ID, for explicit propagation (`None` when
    /// tracing was off at open time).
    pub fn id(&self) -> Option<u64> {
        self.live.as_ref().map(|l| l.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let end_ns = epoch_ns();
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Guards normally drop innermost-first; tolerate
                // out-of-order drops by removing wherever the ID sits.
                if stack.last() == Some(&live.id) {
                    stack.pop();
                } else if let Some(pos) = stack.iter().rposition(|&x| x == live.id) {
                    stack.remove(pos);
                }
            });
            let ev = SpanEvent {
                name: live.name,
                id: live.id,
                parent: live.parent,
                tid: thread_index(),
                depth: live.depth,
                start_ns: live.start_ns,
                dur_ns: end_ns.saturating_sub(live.start_ns),
            };
            with_sink(|s| s.on_span(&ev));
        }
    }
}

/// What [`install_from_env`] decided to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvTrace {
    /// `APE_TRACE` unset or empty: nothing installed.
    Off,
    /// `APE_TRACE=summary`: a [`SummarySink`] was installed.
    Summary,
    /// `APE_TRACE=jsonl[:path]`: a [`JsonLinesSink`] was installed, writing
    /// to the contained target (`"stderr"` or the file path).
    JsonLines(String),
    /// `APE_TRACE=chrome[:path]`: a [`ChromeTraceSink`] was installed;
    /// [`finish`] writes the Chrome trace JSON to the contained path.
    Chrome(String),
    /// `APE_TRACE` was set to something unrecognised; nothing installed.
    Unrecognised(String),
}

/// Reads `APE_TRACE` and installs the matching sink:
///
/// * `summary` — [`SummarySink`]; call [`finish`] to print its report;
/// * `jsonl` — [`JsonLinesSink`] streaming to stderr;
/// * `jsonl:PATH` — [`JsonLinesSink`] streaming to the file `PATH`
///   (truncated; falls back to stderr if the file cannot be created);
/// * `chrome[:PATH]` — [`ChromeTraceSink`]; [`finish`] writes
///   Perfetto-loadable trace JSON to `PATH` (default `ape-trace.json`).
///
/// Anything else (including unset) leaves tracing disabled.
pub fn install_from_env() -> EnvTrace {
    let Ok(raw) = std::env::var("APE_TRACE") else {
        return EnvTrace::Off;
    };
    let raw = raw.trim();
    if raw.is_empty() {
        return EnvTrace::Off;
    }
    if raw.eq_ignore_ascii_case("summary") {
        install(Arc::new(SummarySink::new()));
        return EnvTrace::Summary;
    }
    if let Some(rest) = raw.strip_prefix("chrome") {
        let target = rest.strip_prefix(':').unwrap_or("");
        let path = if target.is_empty() {
            "ape-trace.json"
        } else {
            target
        };
        install(Arc::new(ChromeTraceSink::to_file(path)));
        return EnvTrace::Chrome(path.to_string());
    }
    if let Some(rest) = raw.strip_prefix("jsonl") {
        let target = rest.strip_prefix(':').unwrap_or("");
        if target.is_empty() {
            install(Arc::new(JsonLinesSink::to_stderr()));
            return EnvTrace::JsonLines("stderr".into());
        }
        match JsonLinesSink::to_file(target) {
            Ok(sink) => {
                install(Arc::new(sink));
                return EnvTrace::JsonLines(target.to_string());
            }
            Err(e) => {
                eprintln!("ape-probe: cannot open APE_TRACE file `{target}`: {e}; using stderr");
                install(Arc::new(JsonLinesSink::to_stderr()));
                return EnvTrace::JsonLines("stderr".into());
            }
        }
    }
    eprintln!("ape-probe: unrecognised APE_TRACE value `{raw}` (want `summary`, `jsonl[:PATH]` or `chrome[:PATH]`); tracing disabled");
    EnvTrace::Unrecognised(raw.to_string())
}

/// Flushes the installed sink and, if it aggregates a report
/// ([`SummarySink`]), prints that report to stderr. Call once at the end of
/// a binary that used [`install_from_env`]. A no-op when tracing is off.
pub fn finish() {
    if !is_enabled() {
        return;
    }
    with_sink(|s| {
        s.flush_events();
        if let Some(report) = s.render_report() {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "{report}");
        }
    });
}

/// Formats a nanosecond duration for human-readable reports.
pub fn fmt_nanos(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns_f >= 1e9 {
        format!("{:.2}s", ns_f / 1e9)
    } else if ns_f >= 1e6 {
        format!("{:.2}ms", ns_f / 1e6)
    } else if ns_f >= 1e3 {
        format!("{:.2}us", ns_f / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders an aligned two-or-more-column block used by the summary report.
fn render_rows(out: &mut String, header: &[&str], rows: &[Vec<String>]) {
    let ncol = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let _ = write!(out, "  {:<w$}", header[0], w = widths[0]);
    for (h, w) in header.iter().zip(&widths).skip(1) {
        let _ = write!(out, "  {h:>w$}");
    }
    out.push('\n');
    for row in rows {
        let _ = write!(out, "  {:<w$}", row[0], w = widths[0]);
        for (cell, w) in row.iter().zip(&widths).skip(1) {
            let _ = write!(out, "  {cell:>w$}");
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_accepts_everything() {
        let s = NullSink;
        s.on_span(&SpanEvent {
            name: "a",
            id: 1,
            parent: None,
            tid: 0,
            depth: 0,
            start_ns: 0,
            dur_ns: 1,
        });
        s.on_counter("b", 2);
        s.on_value("c", 3.0);
        s.on_gauge("d", 4.0);
        assert!(s.render_report().is_none());
    }

    #[test]
    fn fmt_nanos_scales() {
        assert_eq!(fmt_nanos(12), "12ns");
        assert_eq!(fmt_nanos(1_500), "1.50us");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }

    #[test]
    fn span_guard_is_inert_when_disabled() {
        // No sink installed in this unit-test process at this point: the
        // guard must not read the clock, allocate an ID, or touch the
        // stack.
        if !is_enabled() {
            let g = span("never.recorded");
            assert!(g.live.is_none());
            assert!(g.id().is_none());
            assert!(current_span().is_none());
        }
    }
}
