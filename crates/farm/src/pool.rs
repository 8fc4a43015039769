//! The farm's dispatch path: `submit` admits a job into a bounded backlog
//! and, while fewer than [`FarmConfig::workers`] runners are active,
//! starts a runner as a detached task on the process-wide [`ape_exec`]
//! executor. A runner drains the backlog in FIFO order, executing each
//! request against a shared [`Technology`] and publishing its result into
//! the single-flight [`ResultCache`], with per-job cancellation,
//! deadlines and panic isolation. The farm owns no thread: it shares the
//! executor with every other client — AC sweeps, `evaluate_many`
//! fan-outs, other farms — instead of running a competing pool.
//!
//! Sweeps bypass the backlog and the cache: their tasks run each grid
//! point through the same execution path (`Shared::run_now`) on the
//! thread that claimed it.

use crate::cache::{Claim, ResultCache};
use crate::job::{canonical_key, FarmError, Request, Response};
use ape_calib::Calibration;
use ape_core::cancel::{self, CancelToken};
use ape_core::graph::SharedMemo;
use ape_core::netest::estimate_netlist;
use ape_core::opamp::OpAmp;
use ape_mos::fingerprint::Fingerprint;
use ape_netlist::Technology;
use ape_oblx::synthesize;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// Configuration of a [`Farm`].
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Maximum jobs in flight at once. Defaults to the machine's available
    /// parallelism, and is clamped to it at construction
    /// ([`ape_exec::clamp_workers`]) — requesting more in-flight jobs than
    /// the machine has cores buys queueing, not throughput. The clamped
    /// value is visible as [`Farm::effective_workers`].
    pub workers: usize,
    /// Backlog capacity: accepted jobs not yet picked up by a runner
    /// (backpressure threshold). Default 256.
    pub queue_capacity: usize,
    /// Per-job deadline; a job still running past it is abandoned at the
    /// estimator's next cancellation checkpoint. `None` = no deadline.
    pub job_timeout: Option<Duration>,
    /// Reset the per-thread estimation graph before every job (default
    /// `false`). The graph's memo keys are bit-exact fingerprints of every
    /// input, so a warm graph returns exactly what a cold recompute would —
    /// results are independent of job order and worker count either way.
    /// Enable only to measure cold-path latency; it forfeits the
    /// incremental-estimation speedup across a sweep's neighbouring jobs.
    pub isolate_sizing_cache: bool,
    /// Attach one process-wide [`SharedMemo`] to every worker's estimation
    /// graph (default `false`). Memo keys are bit-exact input fingerprints,
    /// so the shared store is a pure read-through cache: results are
    /// identical to isolated per-thread graphs, but a subtree computed by
    /// one worker is served to every other worker — the pool warms up once
    /// instead of once per thread. With this set, per-job graph resets
    /// ([`FarmConfig::isolate_sizing_cache`]) only clear the cheap local
    /// view; warmth survives in the shared store.
    pub shared_graph: bool,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_capacity: 256,
            job_timeout: None,
            isolate_sizing_cache: false,
            shared_graph: false,
        }
    }
}

impl FarmConfig {
    /// Config with `workers` threads and the other fields at their defaults.
    pub fn with_workers(workers: usize) -> Self {
        FarmConfig {
            workers: workers.max(1),
            ..FarmConfig::default()
        }
    }
}

/// Counters accumulated over a farm's lifetime (monotonic, racy reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Requests accepted by `submit`/`try_submit` (including deduplicated
    /// ones, which are accepted without queueing).
    pub submitted: u64,
    /// Jobs actually executed, plus sweep points (which run without being
    /// submitted).
    pub executed: u64,
    /// Submissions served from a completed cache entry.
    pub cache_hits: u64,
    /// Submissions folded into an identical in-flight job.
    pub deduped: u64,
    /// Jobs that finished with [`FarmError::Cancelled`].
    pub cancelled: u64,
    /// Jobs that panicked (worker survived).
    pub panicked: u64,
    /// Fail-fast submissions rejected with [`FarmError::QueueFull`].
    pub rejected: u64,
}

#[derive(Default)]
struct StatCells {
    submitted: AtomicU64,
    executed: AtomicU64,
    cache_hits: AtomicU64,
    deduped: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
    rejected: AtomicU64,
}

/// Per-submission options for [`Farm::submit_opts`]: tenant technology
/// selection, an externally owned cancellation token, and the
/// blocking-vs-fail-fast queue policy.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Run against the registered technology with this fingerprint instead
    /// of the farm's default. Unknown fingerprints resolve the handle
    /// immediately to [`FarmError::UnknownTechnology`] without queueing.
    pub technology: Option<u64>,
    /// Apply the registered calibration table with this fingerprint to the
    /// job's estimates. Unknown fingerprints resolve the handle immediately
    /// to [`FarmError::UnknownCalibration`]; a table fitted for a different
    /// technology than the job's resolves to
    /// [`FarmError::CalibrationMismatch`]. `None` = uncalibrated estimates.
    pub calibration: Option<u64>,
    /// Parent the job's cancellation token under this caller-owned token
    /// instead of the farm root. The farm's per-job deadline still applies
    /// (composed as a timed child), but [`Farm::cancel_all`] no longer
    /// reaches the job — the caller owns its lifetime.
    pub token: Option<CancelToken>,
    /// Extra deadline for this job, composed with (not replacing) the
    /// farm's [`FarmConfig::job_timeout`]: the job is abandoned at
    /// whichever expires first.
    pub deadline: Option<Duration>,
    /// `true` = behave like [`Farm::try_submit`] (a full queue resolves the
    /// handle to [`FarmError::QueueFull`]); `false` = block for a slot.
    pub fail_fast: bool,
}

struct WorkItem {
    key: u64,
    req: Request,
    tech: Arc<Technology>,
    /// Calibration table the job's estimates run under (`None` = raw).
    calib: Option<Arc<Calibration>>,
    cancel: CancelToken,
    /// Innermost open span on the submitting thread, captured so the
    /// worker-side `ape.farm.job` span parents under the submitting
    /// request in the trace tree.
    parent_span: Option<u64>,
    /// Enqueue time, for the queue-wait histogram.
    enqueued: Instant,
}

/// Jobs accepted but not yet started, and the runners draining them, under
/// one lock: a runner leaves only after finding the backlog empty while
/// holding it, and `submit` starts a runner under the same lock whenever
/// fewer than the bound are active, so no accepted job is stranded.
struct Admission {
    backlog: VecDeque<WorkItem>,
    runners: usize,
    closed: bool,
}

struct Shared {
    admission: Mutex<Admission>,
    /// Signalled when a full backlog frees a slot, on close, and when the
    /// last runner leaves a closed farm.
    admission_changed: Condvar,
    queue_capacity: usize,
    /// Most runners active at once: the farm's in-flight job bound
    /// ([`FarmConfig::workers`] clamped to the machine).
    max_runners: usize,
    cache: ResultCache,
    tech: Arc<Technology>,
    /// Registered tenant technologies, keyed by fingerprint. The default
    /// technology is registered at construction; the map only grows.
    tenants: RwLock<HashMap<u64, Arc<Technology>>>,
    /// Registered calibration tables, keyed by table fingerprint.
    /// Re-registering a *different* table yields a different fingerprint,
    /// so stale cached results are unreachable by construction — the
    /// calibration fingerprint is folded into every job key.
    calibrations: RwLock<HashMap<u64, Arc<Calibration>>>,
    /// Cross-worker estimation memo store when
    /// [`FarmConfig::shared_graph`] is set.
    shared_graph: Option<Arc<SharedMemo>>,
    isolate_sizing_cache: bool,
    stats: StatCells,
    /// Always-on latency telemetry, independent of whether a probe sink is
    /// installed: the farm owns its own lock-free histograms.
    queue_wait_ns: ape_probe::Histogram,
    job_latency_ns: ape_probe::Histogram,
}

/// A handle to one submitted job.
///
/// Dropping the handle does not cancel the job; call
/// [`JobHandle::cancel`] for that. [`JobHandle::wait`] may be called from
/// any thread and any number of handles for the same key may wait
/// concurrently.
#[derive(Debug, Clone)]
pub struct JobHandle {
    key: u64,
    cancel: CancelToken,
    shared: Arc<Shared>,
    /// A submission rejected before it touched the queue or cache (e.g. an
    /// unknown technology fingerprint): the handle is born resolved and
    /// never consults the single-flight cache, so the bad submission can't
    /// interfere with an honest job under the same key.
    immediate: Option<FarmError>,
}

impl Shared {
    fn lookup_technology(&self, fp: u64) -> Option<Arc<Technology>> {
        self.tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&fp)
            .cloned()
    }

    fn lookup_calibration(&self, fp: u64) -> Option<Arc<Calibration>> {
        self.calibrations
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&fp)
            .cloned()
    }

    fn admission(&self) -> MutexGuard<'_, Admission> {
        self.admission.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Accepts an owned job into the backlog, blocking for a slot unless
    /// `fail_fast`, and starts a runner when fewer than the bound are
    /// active. An `Err` is the outcome the caller must publish for the job.
    fn admit(self: &Arc<Self>, item: WorkItem, fail_fast: bool) -> Result<(), FarmError> {
        let mut adm = self.admission();
        loop {
            if adm.closed {
                return Err(FarmError::ShuttingDown);
            }
            if adm.backlog.len() < self.queue_capacity {
                break;
            }
            if fail_fast {
                ape_probe::counter("ape.farm.queue.rejected", 1);
                return Err(FarmError::QueueFull);
            }
            adm = self
                .admission_changed
                .wait(adm)
                .unwrap_or_else(|e| e.into_inner());
        }
        adm.backlog.push_back(item);
        ape_probe::gauge("ape.farm.queue.depth", adm.backlog.len() as f64);
        let start_runner = adm.runners < self.max_runners;
        if start_runner {
            adm.runners += 1;
            ape_probe::gauge("ape.farm.runners", adm.runners as f64);
        }
        drop(adm);
        if start_runner {
            let shared = Arc::clone(self);
            ape_exec::Executor::global().spawn(move || shared.run_backlog());
        }
        Ok(())
    }

    /// A runner: executes backlog jobs front first until the backlog is
    /// empty, then leaves under the admission lock.
    fn run_backlog(&self) {
        loop {
            let mut adm = self.admission();
            let was_full = adm.backlog.len() >= self.queue_capacity;
            let Some(item) = adm.backlog.pop_front() else {
                adm.runners -= 1;
                ape_probe::gauge("ape.farm.runners", adm.runners as f64);
                if adm.closed && adm.runners == 0 {
                    self.admission_changed.notify_all();
                }
                return;
            };
            ape_probe::gauge("ape.farm.queue.depth", adm.backlog.len() as f64);
            drop(adm);
            if was_full {
                self.admission_changed.notify_all();
            }
            // `run_job` nets the job's own panics; this net keeps a panic
            // from outside it (its `PublishOnDrop` has already reported
            // `WorkerLost`) from ending the runner with jobs still queued.
            let _ = catch_unwind(AssertUnwindSafe(|| run_job(self, &item)));
        }
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let adm = self.admission();
        f.debug_struct("Shared")
            .field("backlog", &adm.backlog.len())
            .field("runners", &adm.runners)
            .field("cache", &self.cache)
            .finish()
    }
}

impl JobHandle {
    /// The job's content-addressed key (stable within this process).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Requests cancellation of this job. The running worker abandons it
    /// at the estimator's next checkpoint; a queued job fails on dequeue.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the job (or the identical job it was deduplicated
    /// into) completes, and returns its result.
    pub fn wait(&self) -> Result<Response, FarmError> {
        if let Some(err) = &self.immediate {
            return Err(err.clone());
        }
        self.shared.cache.wait(self.key)
    }

    /// Non-blocking result peek.
    pub fn peek(&self) -> Option<Result<Response, FarmError>> {
        if let Some(err) = &self.immediate {
            return Some(Err(err.clone()));
        }
        self.shared.cache.peek(self.key)
    }
}

/// A concurrent batch-estimation engine: bounded backlog, in-flight bound
/// on the shared executor, content-addressed single-flight result cache.
///
/// # Example
///
/// ```
/// use ape_core::basic::MirrorTopology;
/// use ape_core::opamp::{OpAmpSpec, OpAmpTopology};
/// use ape_farm::{Farm, FarmConfig, Request};
/// use ape_netlist::Technology;
///
/// let farm = Farm::new(Technology::default_1p2um(), FarmConfig::with_workers(2));
/// let h = farm.submit(Request::OpAmpDesign {
///     topology: OpAmpTopology::miller(MirrorTopology::Simple, false),
///     spec: OpAmpSpec {
///         gain: 200.0,
///         ugf_hz: 5e6,
///         area_max_m2: 5000e-12,
///         ibias: 10e-6,
///         zout_ohm: None,
///         cl: 10e-12,
///     },
/// });
/// let amp = h.wait().unwrap();
/// assert!(amp.as_opamp().unwrap().perf.dc_gain.unwrap().abs() >= 150.0);
/// drop(farm); // runs any accepted jobs to completion
/// ```
#[derive(Debug)]
pub struct Farm {
    shared: Arc<Shared>,
    cancel: CancelToken,
    job_timeout: Option<Duration>,
    configured_workers: usize,
}

impl Farm {
    /// Builds a farm whose jobs run on the process-wide [`ape_exec`]
    /// executor, at most `config.workers` (clamped to the machine's
    /// parallelism) at once, with up to `config.queue_capacity` more
    /// waiting in its backlog.
    pub fn new(tech: Technology, config: FarmConfig) -> Self {
        let tech = Arc::new(tech);
        let mut tenants = HashMap::new();
        tenants.insert(tech.fingerprint(), tech.clone());
        let configured_workers = config.workers.max(1);
        // Clamp the in-flight bound to the machine: jobs beyond the core
        // count would only time-slice each other on the shared executor.
        // (There is no per-call work-item count for a long-lived pool, so
        // that clamp term is unbounded here.)
        let max_runners = ape_exec::clamp_workers(configured_workers, usize::MAX);
        let shared = Arc::new(Shared {
            admission: Mutex::new(Admission {
                backlog: VecDeque::new(),
                runners: 0,
                closed: false,
            }),
            admission_changed: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            max_runners,
            cache: ResultCache::new(),
            tech,
            tenants: RwLock::new(tenants),
            calibrations: RwLock::new(HashMap::new()),
            shared_graph: config.shared_graph.then(|| Arc::new(SharedMemo::new())),
            isolate_sizing_cache: config.isolate_sizing_cache,
            stats: StatCells::default(),
            queue_wait_ns: ape_probe::Histogram::new(),
            job_latency_ns: ape_probe::Histogram::new(),
        });
        Farm {
            shared,
            cancel: CancelToken::new(),
            job_timeout: config.job_timeout,
            configured_workers,
        }
    }

    /// The in-flight job bound actually in force: `config.workers` after
    /// clamping to the machine's available parallelism (at least 1).
    pub fn effective_workers(&self) -> usize {
        self.shared.max_runners
    }

    /// The default technology, used by jobs that don't select a tenant.
    pub fn technology(&self) -> &Technology {
        &self.shared.tech
    }

    /// Registers a tenant technology and returns its fingerprint, the id a
    /// [`SubmitOptions::technology`] selection refers to. Registering the
    /// same card twice is idempotent (same fingerprint, same entry); two
    /// cards that differ only in `name` share a fingerprint by design
    /// (the fingerprint covers process-relevant fields only) and the first
    /// registration wins.
    pub fn register_technology(&self, tech: Technology) -> u64 {
        let fp = tech.fingerprint();
        let mut tenants = self
            .shared
            .tenants
            .write()
            .unwrap_or_else(|e| e.into_inner());
        tenants.entry(fp).or_insert_with(|| Arc::new(tech));
        fp
    }

    /// Looks up a registered tenant technology by fingerprint.
    pub fn technology_by_fingerprint(&self, fp: u64) -> Option<Arc<Technology>> {
        self.shared.lookup_technology(fp)
    }

    /// Registers a calibration table and returns its fingerprint, the id a
    /// [`SubmitOptions::calibration`] selection refers to. Registering the
    /// same table twice is idempotent. A *changed* table (re-fitted against
    /// fresh audits, say) has a different content fingerprint and so a
    /// different id: jobs selecting it key differently from jobs that ran
    /// under the old table, which is what makes the result cache (and the
    /// workers' shared estimation memos) safe across re-registration.
    pub fn register_calibration(&self, cal: Calibration) -> u64 {
        let fp = cal.fingerprint();
        let mut cals = self
            .shared
            .calibrations
            .write()
            .unwrap_or_else(|e| e.into_inner());
        cals.entry(fp).or_insert_with(|| Arc::new(cal));
        fp
    }

    /// Looks up a registered calibration table by fingerprint.
    pub fn calibration_by_fingerprint(&self, fp: u64) -> Option<Arc<Calibration>> {
        self.shared.lookup_calibration(fp)
    }

    /// The cross-worker shared estimation memo, when
    /// [`FarmConfig::shared_graph`] is enabled.
    pub fn shared_memo(&self) -> Option<&Arc<SharedMemo>> {
        self.shared.shared_graph.as_ref()
    }

    /// Human-readable summary of the sparse solver's symbolic-factorisation
    /// cache across all workers, in the same spirit as
    /// [`ape_core::graph::graph_report`]. Every farm job starts with a cold
    /// cache, so each pattern a job analyses shows up as a miss.
    pub fn solver_cache_report(&self) -> String {
        ape_spice::symbolic_cache_report()
    }

    /// Distribution of per-job queue wait (submit → dequeue),
    /// nanoseconds. Recorded for every executed job whether or not a probe
    /// sink is installed.
    pub fn queue_wait_ns(&self) -> ape_probe::HistogramSnapshot {
        self.shared.queue_wait_ns.snapshot()
    }

    /// Distribution of per-job execution latency (dequeue → published
    /// result), nanoseconds.
    pub fn job_latency_ns(&self) -> ape_probe::HistogramSnapshot {
        self.shared.job_latency_ns.snapshot()
    }

    /// Human-readable one-stop report: lifetime counters plus queue-wait
    /// and job-latency quantiles.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let s = self.stats();
        let wait = self.queue_wait_ns();
        let lat = self.job_latency_ns();
        let mut out = String::from("=== ape-farm report ===\n");
        let exec = ape_exec::Executor::global();
        let _ = writeln!(
            out,
            "  pool: up to {} jobs in flight ({} configured), shared executor {} workers (parallelism {})",
            self.effective_workers(),
            self.configured_workers,
            exec.workers(),
            exec.parallelism(),
        );
        let _ = writeln!(
            out,
            "  jobs: {} submitted, {} executed, {} cache hits, {} deduped, {} cancelled, {} panicked, {} rejected",
            s.submitted, s.executed, s.cache_hits, s.deduped, s.cancelled, s.panicked, s.rejected
        );
        let fmt_ns = |v: f64| ape_probe::fmt_nanos(v.max(0.0) as u64);
        let _ = writeln!(
            out,
            "  queue wait:  p50 {}  p90 {}  p99 {}  max {}  (n={})",
            fmt_ns(wait.p50()),
            fmt_ns(wait.p90()),
            fmt_ns(wait.p99()),
            fmt_ns(if wait.count == 0 { 0.0 } else { wait.max }),
            wait.count
        );
        let _ = writeln!(
            out,
            "  job latency: p50 {}  p90 {}  p99 {}  max {}  (n={})",
            fmt_ns(lat.p50()),
            fmt_ns(lat.p90()),
            fmt_ns(lat.p99()),
            fmt_ns(if lat.count == 0 { 0.0 } else { lat.max }),
            lat.count
        );
        if let Some(store) = &self.shared.shared_graph {
            let _ = writeln!(out, "  {}", store.report());
        }
        out
    }

    /// Lifetime counters (racy snapshot).
    pub fn stats(&self) -> FarmStats {
        let s = &self.shared.stats;
        FarmStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            executed: s.executed.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            deduped: s.deduped.load(Ordering::Relaxed),
            cancelled: s.cancelled.load(Ordering::Relaxed),
            panicked: s.panicked.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
        }
    }

    fn job_token(&self, opts: &SubmitOptions) -> CancelToken {
        // The job's token parents under the caller's token when one is
        // given (the caller owns the job's lifetime), else under the farm
        // root (so `cancel_all` reaches it). The effective deadline is the
        // tighter of the farm-wide timeout and the per-submission one.
        let parent = opts.token.as_ref().unwrap_or(&self.cancel);
        let deadline = match (self.job_timeout, opts.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match deadline {
            Some(t) => parent.child_with_timeout(t),
            None => parent.child(),
        }
    }

    /// Submits a request, blocking while the queue is full (backpressure).
    ///
    /// An identical in-flight or completed request is shared instead of
    /// re-queued; the returned handle then waits on the shared flight.
    pub fn submit(&self, req: Request) -> JobHandle {
        self.submit_opts(req, SubmitOptions::default())
    }

    /// Fail-fast submission: like [`Farm::submit`] but a full queue yields
    /// a handle already resolved to [`FarmError::QueueFull`] instead of
    /// blocking. Deduplicated submissions never fail this way — sharing an
    /// existing flight needs no queue slot.
    pub fn try_submit(&self, req: Request) -> JobHandle {
        self.submit_opts(
            req,
            SubmitOptions {
                fail_fast: true,
                ..SubmitOptions::default()
            },
        )
    }

    /// Submits a request with per-submission [`SubmitOptions`]: tenant
    /// technology selection, caller-owned cancellation, extra deadline,
    /// and queue policy.
    pub fn submit_opts(&self, req: Request, opts: SubmitOptions) -> JobHandle {
        let shared = &self.shared;
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let tech = match opts.technology {
            None => shared.tech.clone(),
            Some(fp) => match shared.lookup_technology(fp) {
                Some(t) => t,
                None => {
                    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    ape_probe::counter("ape.farm.unknown_technology", 1);
                    return JobHandle {
                        key: 0,
                        cancel: CancelToken::new(),
                        shared: shared.clone(),
                        immediate: Some(FarmError::UnknownTechnology(fp)),
                    };
                }
            },
        };
        let calib = match opts.calibration {
            None => None,
            Some(fp) => match shared.lookup_calibration(fp) {
                Some(c) if c.technology_fingerprint() == tech.fingerprint() => Some(c),
                Some(c) => {
                    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    ape_probe::counter("ape.farm.calibration_mismatch", 1);
                    return JobHandle {
                        key: 0,
                        cancel: CancelToken::new(),
                        shared: shared.clone(),
                        immediate: Some(FarmError::CalibrationMismatch {
                            expected: tech.fingerprint(),
                            got: c.technology_fingerprint(),
                        }),
                    };
                }
                None => {
                    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    ape_probe::counter("ape.farm.unknown_calibration", 1);
                    return JobHandle {
                        key: 0,
                        cancel: CancelToken::new(),
                        shared: shared.clone(),
                        immediate: Some(FarmError::UnknownCalibration(fp)),
                    };
                }
            },
        };
        let fail_fast = opts.fail_fast;
        // A calibrated job computes different numbers from an uncalibrated
        // one with the same payload, so the table's content fingerprint is
        // part of the job's identity in the single-flight cache.
        let key = match &calib {
            None => canonical_key(&tech, &req),
            Some(c) => Fingerprint::new()
                .u64(canonical_key(&tech, &req))
                .u64(c.fingerprint())
                .finish(),
        };
        let token = self.job_token(&opts);
        let handle = JobHandle {
            key,
            cancel: token.clone(),
            shared: shared.clone(),
            immediate: None,
        };
        match shared.cache.claim(key) {
            Claim::Shared => {
                // Someone owns this key: completed → cache hit, in
                // flight → dedup. Count by peeking at completion state.
                if shared.cache.peek(key).is_some() {
                    shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.stats.deduped.fetch_add(1, Ordering::Relaxed);
                }
                handle
            }
            Claim::Owner => {
                let item = WorkItem {
                    key,
                    req,
                    tech,
                    calib,
                    cancel: token,
                    parent_span: ape_probe::current_span(),
                    enqueued: Instant::now(),
                };
                // Having claimed ownership we MUST publish an outcome for
                // this key on every path, or deduplicated waiters hang.
                if let Err(err) = shared.admit(item, fail_fast) {
                    if err == FarmError::QueueFull {
                        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    shared.cache.publish(key, Err(err));
                }
                handle
            }
        }
    }

    /// Cancels every queued and running job. Workers stay alive and serve
    /// later submissions; only jobs holding a token derived before this
    /// call are affected... which is all of them, so in practice this
    /// empties the farm. Subsequent submissions get fresh tokens from the
    /// same root and are ALSO cancelled — use this only when tearing the
    /// batch down.
    pub fn cancel_all(&self) {
        self.cancel.cancel();
    }

    /// Runs `req` against the default technology on the calling thread,
    /// through the same execution path as a backlog job and under a fresh
    /// job token (a child of the farm root with the farm's job timeout),
    /// but with no backlog slot, handle or result-cache entry. Sweeps drive
    /// their grid points through this.
    pub(crate) fn run_now(
        &self,
        req: &Request,
        parent_span: Option<u64>,
    ) -> Result<Response, FarmError> {
        let token = self.job_token(&SubmitOptions::default());
        self.shared
            .run_now(req, &self.shared.tech, None, &token, parent_span)
    }

    /// `true` once [`Farm::shutdown`] has closed admission.
    pub(crate) fn is_shut_down(&self) -> bool {
        self.shared.admission().closed
    }

    /// Closes admission and waits for the runners to leave: accepted but
    /// unstarted jobs still execute, and every accepted job has published
    /// its result when this returns. New submissions fail with
    /// [`FarmError::ShuttingDown`]. Called automatically on drop.
    pub fn shutdown(&mut self) {
        let shared = &self.shared;
        let mut adm = shared.admission();
        adm.closed = true;
        // Wake submitters blocked on a full backlog: they now fail.
        shared.admission_changed.notify_all();
        while adm.runners > 0 {
            adm = shared
                .admission_changed
                .wait(adm)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for Farm {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Publishes a `WorkerLost` result for a claimed key unless defused.
///
/// `Shared::run_now` already nets ordinary job panics with `catch_unwind`,
/// but a panic *outside* that net (probe sink, cache reset, a non-unwind payload
/// aborting the worker thread) used to leave the key `InFlight` forever —
/// every deduplicated waiter would then sleep until process exit. Arming
/// this guard before running the job guarantees an outcome is published on
/// every exit path.
struct PublishOnDrop<'a> {
    shared: &'a Shared,
    key: u64,
    armed: bool,
}

impl Drop for PublishOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            ape_probe::counter("ape.farm.worker.lost_job", 1);
            self.shared.stats.panicked.fetch_add(1, Ordering::Relaxed);
            self.shared.cache.publish(
                self.key,
                Err(FarmError::WorkerLost(
                    "worker died before publishing a result".to_string(),
                )),
            );
        }
    }
}

/// Executes one dequeued job on whatever thread the executor gave its
/// runner and publishes its outcome into the result cache.
fn run_job(shared: &Shared, item: &WorkItem) {
    let mut guard = PublishOnDrop {
        shared,
        key: item.key,
        armed: true,
    };
    let wait_ns = item.enqueued.elapsed().as_nanos() as f64;
    shared.queue_wait_ns.record(wait_ns);
    ape_probe::value("ape.farm.queue.wait_ns", wait_ns);
    let result = shared.run_now(
        &item.req,
        &item.tech,
        item.calib.as_ref(),
        &item.cancel,
        item.parent_span,
    );
    guard.armed = false;
    shared.cache.publish(item.key, result);
}

impl Shared {
    /// Runs one request now, on the calling thread: the one execution path
    /// behind both backlog jobs and sweep points. Threads have no farm
    /// affinity, so per-thread state is asserted per call: the estimation
    /// graph's memo store and calibration table are attached, `cancel` is
    /// installed for the estimator's checkpoints, and the solver's symbolic
    /// cache starts cold. A panic becomes [`FarmError::Panicked`]; every
    /// outcome is counted in [`FarmStats`] and the job-latency histogram.
    fn run_now(
        &self,
        req: &Request,
        tech: &Technology,
        calib: Option<&Arc<Calibration>>,
        cancel: &CancelToken,
        parent_span: Option<u64>,
    ) -> Result<Response, FarmError> {
        // `ensure` compares by `Arc` identity (calibrations by content
        // fingerprint), so consecutive jobs from the same farm keep the
        // thread's warm graph and pay nothing; the calibration fingerprint
        // is also folded into every memo key, so a stale entry can never
        // answer a calibrated job.
        ape_core::graph::ensure_thread_shared_memo(self.shared_graph.clone());
        ape_core::graph::ensure_thread_calibration(calib.cloned());
        let t0 = Instant::now();
        let result = {
            // Parent the job's span under the innermost span that was open
            // on the submitting thread, so jobs and sweep points hang off
            // their request or sweep span in the exported trace tree
            // instead of floating as roots.
            let _span = ape_probe::span_with_parent("ape.farm.job", parent_span);
            if cancel.is_cancelled() {
                Err(FarmError::Cancelled)
            } else {
                let _token_guard = cancel::set_current(cancel.clone());
                if self.isolate_sizing_cache {
                    ape_core::graph::reset_thread_graph();
                }
                // A cached pivot order is a function of the job that built
                // it; starting every job cold keeps its floating-point path
                // independent of what ran before it on the same thread.
                ape_spice::reset_symbolic_cache();
                catch_unwind(AssertUnwindSafe(|| execute(tech, req)))
                    .unwrap_or_else(|payload| Err(FarmError::Panicked(panic_message(&*payload))))
            }
        };
        let latency_ns = t0.elapsed().as_nanos() as f64;
        self.job_latency_ns.record(latency_ns);
        ape_probe::value("ape.farm.job.latency_ns", latency_ns);
        self.stats.executed.fetch_add(1, Ordering::Relaxed);
        match &result {
            Err(FarmError::Cancelled) => {
                self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
                ape_probe::counter("ape.farm.job.cancelled", 1);
            }
            Err(FarmError::Panicked(_)) => {
                self.stats.panicked.fetch_add(1, Ordering::Relaxed);
                ape_probe::counter("ape.farm.job.panicked", 1);
            }
            Err(_) => ape_probe::counter("ape.farm.job.failed", 1),
            Ok(_) => ape_probe::counter("ape.farm.job.ok", 1),
        }
        result
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn execute(tech: &Technology, req: &Request) -> Result<Response, FarmError> {
    match req {
        Request::OpAmpDesign { topology, spec } => {
            let amp = OpAmp::design(tech, *topology, *spec)?;
            Ok(Response::OpAmp(Box::new(amp)))
        }
        Request::NetlistEstimate { circuit, output } => {
            let est = estimate_netlist(circuit, tech, *output)?;
            Ok(Response::Netlist(Box::new(est)))
        }
        Request::Synthesize {
            topology,
            spec,
            init,
            opts,
        } => {
            let out = synthesize(tech, *topology, spec, init, opts)?;
            Ok(Response::Synthesis(Box::new(out)))
        }
        Request::Custom { run, .. } => run(tech),
    }
}
