//! The traced run's instruments, all outside the program under test:
//!
//! * an in-memory span recorder the benchmark wraps around every ladder
//!   rung and every call it makes into a layer, written out as a Chrome
//!   trace when the run ends;
//! * [`LayerSink`], an `ape_probe` sink that turns the spans and counters
//!   the program already emits into per-name self times and counter
//!   totals.

use ape_probe::{Sink, SpanEvent, SummarySink};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Recorded spans are capped so a long run cannot grow without bound.
const MAX_SPANS: usize = 100_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    req: u64,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turns span recording on or off.
pub fn set_recording(on: bool) {
    recorder().on.store(on, Ordering::SeqCst);
}

fn thread_id() -> u64 {
    thread_local!(static TID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    });
    TID.with(|t| *t)
}

/// An open span; records itself when dropped. Inert while recording is
/// off.
pub struct Guard {
    name: &'static str,
    id: u64,
    parent: u64,
    req: u64,
    start: Option<Instant>,
}

impl Guard {
    /// The span's id, for children to name as their parent (0 when off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Opens a span. `parent` is 0 for a root; `req` is shared by every span
/// of one request (0 when the span belongs to no single request).
pub fn span(name: &'static str, parent: u64, req: u64) -> Guard {
    let r = recorder();
    if !r.on.load(Ordering::Relaxed) {
        return Guard {
            name,
            id: 0,
            parent,
            req,
            start: None,
        };
    }
    Guard {
        name,
        id: r.next_id.fetch_add(1, Ordering::Relaxed),
        parent,
        req,
        start: Some(Instant::now()),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let r = recorder();
        let end = Instant::now();
        let ns = |t: Instant| t.saturating_duration_since(r.epoch).as_nanos() as u64;
        let span = Span {
            name: self.name,
            id: self.id,
            parent: self.parent,
            req: self.req,
            tid: thread_id(),
            start_ns: ns(start),
            end_ns: ns(end),
        };
        let mut spans = r.spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() < MAX_SPANS {
            spans.push(span);
        }
    }
}

/// Number of spans recorded so far.
pub fn recorded() -> usize {
    recorder()
        .spans
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .len()
}

/// Renders every recorded span as a Chrome trace (`chrome://tracing`,
/// Perfetto). Span id, parent and request id ride in `args`.
pub fn chrome_trace() -> String {
    let spans = recorder()
        .spans
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.req
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Writes the Chrome trace next to the build output and returns its path.
pub fn write_chrome_trace(workload: &str, seed: u64) -> std::io::Result<String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = format!("{dir}/perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = format!("{dir}/{workload}-seed{seed}.json");
    std::fs::write(&path, chrome_trace())?;
    Ok(path)
}

/// Self time and count per span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
}

/// An `ape_probe` sink that computes each span's self time (its duration
/// minus the time its child spans cover) and forwards counters to a
/// [`SummarySink`].
#[derive(Default)]
pub struct LayerSink {
    summary: SummarySink,
    child_ns: Mutex<HashMap<u64, u64>>,
    selfs: Mutex<HashMap<&'static str, SelfTime>>,
}

impl LayerSink {
    pub fn install() -> Arc<LayerSink> {
        let sink = Arc::new(LayerSink::default());
        ape_probe::install(sink.clone());
        sink
    }

    pub fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        self.summary.counters()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters().get(name).copied().unwrap_or(0)
    }

    pub fn self_times(&self) -> HashMap<&'static str, SelfTime> {
        self.selfs.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Sink for LayerSink {
    fn on_span(&self, ev: &SpanEvent) {
        let children = {
            let mut acc = self.child_ns.lock().unwrap_or_else(|e| e.into_inner());
            let c = acc.remove(&ev.id).unwrap_or(0);
            if let Some(p) = ev.parent {
                *acc.entry(p).or_insert(0) += ev.dur_ns;
            }
            c
        };
        let mut selfs = self.selfs.lock().unwrap_or_else(|e| e.into_inner());
        let e = selfs.entry(ev.name).or_default();
        e.count += 1;
        e.self_ns += ev.dur_ns.saturating_sub(children);
    }

    fn on_counter(&self, name: &'static str, delta: u64) {
        self.summary.on_counter(name, delta);
    }

    fn on_value(&self, name: &'static str, v: f64) {
        self.summary.on_value(name, v);
    }

    fn on_gauge(&self, name: &'static str, v: f64) {
        self.summary.on_gauge(name, v);
    }
}

/// Sum of self time (ns) over span names starting with `prefix`, between
/// two snapshots.
pub fn self_ns_delta(
    before: &HashMap<&'static str, SelfTime>,
    after: &HashMap<&'static str, SelfTime>,
    prefix: &str,
) -> f64 {
    after
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(k, v)| v.self_ns.saturating_sub(before.get(k).map_or(0, |b| b.self_ns)) as f64)
        .sum()
}
