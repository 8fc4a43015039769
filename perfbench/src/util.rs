//! Small shared pieces: a seeded RNG, sample statistics, `/proc` memory
//! readings and the result line.

use ape_probe::HistogramSnapshot;
use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: tiny, seedable, and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from `seed` and `salt`.
    pub fn fork(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ salt ^ 0x9e37_79b9_7f4a_7c15);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform in `[lo, hi)`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `q`-quantile of `samples` (nearest rank on a sorted copy).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail the benchmark reports: the highest percentile with at least
/// ten samples beyond it, capped at p99 (reached at 1,000 samples) and
/// never below the median.
pub fn tail(samples: &[f64]) -> f64 {
    let q = 1.0 - 10.0 / samples.len().max(1) as f64;
    quantile(samples, q.clamp(0.5, 0.99))
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of an `ape_probe` histogram, interpolated linearly inside the
/// log-linear bucket that holds it. The histogram itself answers with the
/// bucket midpoint, which would read the same on nearly every run.
pub fn hist_p50(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let n = h.count;
    let target = (n as f64 * 0.5).ceil().max(1.0) as u64;
    let at = |rank: u64| h.quantile(rank as f64 / n as f64);
    let mid = at(target);
    // First and last rank answered by the same bucket.
    let (mut lo, mut hi) = (1u64, target);
    while lo < hi {
        let m = (lo + hi) / 2;
        if at(m) < mid {
            lo = m + 1;
        } else {
            hi = m;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (target, n);
    while lo < hi {
        let m = (lo + hi).div_ceil(2);
        if at(m) > mid {
            hi = m - 1;
        } else {
            lo = m;
        }
    }
    let last = lo;
    // Bucket edges: 8 linear sub-buckets per power of two.
    if !(mid > 0.0 && mid.is_finite()) {
        return mid;
    }
    let scale = mid.log2().floor().exp2();
    let sub = ((mid / scale - 1.0) * 8.0 - 0.5).round();
    let edge_lo = scale * (1.0 + sub / 8.0);
    let edge_hi = scale * (1.0 + (sub + 1.0) / 8.0);
    let f = (target - first) as f64 + 0.5;
    let v = edge_lo + (edge_hi - edge_lo) * f / (last - first + 1) as f64;
    v.clamp(h.min, h.max)
}

/// A field of `/proc/self/status`, in kB.
fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set size of this process, kB.
pub fn rss_kb() -> f64 {
    proc_status_kb("VmRSS:")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` `reps` times and returns the median wall time in seconds,
/// together with the last result.
pub fn median_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let v = f();
        times.push(t.elapsed().as_secs_f64());
        // Keep the newest; dropping the older one tears it down untimed.
        last = Some(v);
    }
    (median(&times), last.expect("at least one setup"))
}

/// Tallies operations and the ways they went wrong.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub refused: u64,
    pub dropped: u64,
    pub timeouts: u64,
    pub mismatches: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.refused + self.dropped + self.timeouts + self.mismatches
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.refused += o.refused;
        self.dropped += o.dropped;
        self.timeouts += o.timeouts;
        self.mismatches += o.mismatches;
    }

    /// Share of attempted operations that succeeded and checked out.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "attempted {} | errors {} | 429 {} | dropped {} | timeouts {} | mismatches {}",
            self.attempted, self.errors, self.refused, self.dropped, self.timeouts, self.mismatches
        )
    }
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed()
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}
