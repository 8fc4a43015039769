// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! End-to-end behaviour of the farm: real estimator jobs, deduplication,
//! cancellation, panic isolation, and backpressure.

use ape_core::basic::MirrorTopology;
use ape_core::opamp::{OpAmpSpec, OpAmpTopology};
use ape_farm::{Farm, FarmConfig, FarmError, Request, Response};
use ape_netlist::Technology;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

fn spec(gain: f64) -> OpAmpSpec {
    OpAmpSpec {
        gain,
        ugf_hz: 5e6,
        area_max_m2: 20_000e-12,
        ibias: 10e-6,
        zout_ohm: None,
        cl: 10e-12,
    }
}

fn design(gain: f64) -> Request {
    Request::OpAmpDesign {
        topology: OpAmpTopology::miller(MirrorTopology::Simple, false),
        spec: spec(gain),
    }
}

#[test]
fn opamp_design_end_to_end() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::with_workers(2));
    let h = farm.submit(design(200.0));
    let resp = h.wait().expect("design succeeds");
    let amp = resp.as_opamp().expect("opamp response");
    assert!(amp.perf.dc_gain.unwrap().abs() >= 150.0);
    let stats = farm.stats();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.executed, 1);
}

static SLOW_RUNS: AtomicUsize = AtomicUsize::new(0);

fn slow_job(_tech: &Technology) -> Result<Response, FarmError> {
    SLOW_RUNS.fetch_add(1, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(100));
    Ok(Response::Text("slow done".into()))
}

#[test]
fn identical_submissions_run_once() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::with_workers(1));
    let req = Request::Custom {
        label: "dedup-probe",
        nonce: 1,
        run: slow_job,
    };
    let handles: Vec<_> = (0..3).map(|_| farm.submit(req.clone())).collect();
    for h in &handles {
        let r = h.wait().expect("shared flight succeeds");
        assert!(matches!(r, Response::Text(ref s) if s == "slow done"));
    }
    // Same key again, after completion: a pure cache hit.
    farm.submit(req).wait().expect("cache hit succeeds");
    assert_eq!(SLOW_RUNS.load(Ordering::SeqCst), 1, "one execution total");
    let stats = farm.stats();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.executed, 1);
    assert_eq!(
        stats.cache_hits + stats.deduped,
        3,
        "three submissions shared the first flight: {stats:?}"
    );
}

fn panicking_job(_tech: &Technology) -> Result<Response, FarmError> {
    panic!("deliberate test panic");
}

#[test]
fn a_panicking_job_fails_alone() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::with_workers(1));
    let bad = farm.submit(Request::Custom {
        label: "panics",
        nonce: 2,
        run: panicking_job,
    });
    match bad.wait() {
        Err(FarmError::Panicked(msg)) => assert!(msg.contains("deliberate test panic")),
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The worker survived and keeps serving real jobs.
    let good = farm.submit(design(150.0));
    assert!(good.wait().is_ok());
    assert_eq!(farm.stats().panicked, 1);
}

#[test]
fn expired_deadline_cancels_jobs() {
    let cfg = FarmConfig {
        job_timeout: Some(Duration::from_millis(0)),
        ..FarmConfig::with_workers(1)
    };
    let farm = Farm::new(Technology::default_1p2um(), cfg);
    let h = farm.submit(design(300.0));
    assert_eq!(h.wait().unwrap_err(), FarmError::Cancelled);
    assert_eq!(farm.stats().cancelled, 1);
}

#[test]
fn cancel_all_drains_queued_jobs() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::with_workers(1));
    // Occupy the single worker so the design jobs stay queued. Uses its own
    // job fn: sharing `slow_job` would bump SLOW_RUNS concurrently with
    // `identical_submissions_run_once` and flake its exact-count assertion.
    fn blocker_job(_tech: &Technology) -> Result<Response, FarmError> {
        std::thread::sleep(Duration::from_millis(100));
        Ok(Response::Text("blocker done".into()))
    }
    let blocker = farm.submit(Request::Custom {
        label: "blocker",
        nonce: 3,
        run: blocker_job,
    });
    let queued: Vec<_> = (0..4)
        .map(|i| farm.submit(design(100.0 + i as f64)))
        .collect();
    farm.cancel_all();
    for h in queued {
        assert_eq!(h.wait().unwrap_err(), FarmError::Cancelled);
    }
    // The blocker itself had already started; it either finished or was
    // cancelled depending on timing — both are sound. It must terminate.
    let _ = blocker.wait();
}

fn very_slow_job(_tech: &Technology) -> Result<Response, FarmError> {
    std::thread::sleep(Duration::from_millis(300));
    Ok(Response::Text("done".into()))
}

#[test]
fn try_submit_feels_backpressure() {
    let cfg = FarmConfig {
        queue_capacity: 1,
        ..FarmConfig::with_workers(1)
    };
    let farm = Farm::new(Technology::default_1p2um(), cfg);
    // First job: picked up by the worker (sleeps 300 ms).
    let running = farm.submit(Request::Custom {
        label: "bp",
        nonce: 10,
        run: very_slow_job,
    });
    // Give the worker time to dequeue it, then fill the single queue slot.
    std::thread::sleep(Duration::from_millis(50));
    let queued = farm.submit(Request::Custom {
        label: "bp",
        nonce: 11,
        run: very_slow_job,
    });
    // Distinct third request: the queue is full, fail-fast refuses it.
    let rejected = farm.try_submit(Request::Custom {
        label: "bp",
        nonce: 12,
        run: very_slow_job,
    });
    assert_eq!(rejected.wait().unwrap_err(), FarmError::QueueFull);
    assert_eq!(farm.stats().rejected, 1);
    // A duplicate of an in-flight request needs no queue slot, so
    // fail-fast submission shares it even while the queue is full.
    let shared = farm.try_submit(Request::Custom {
        label: "bp",
        nonce: 10,
        run: very_slow_job,
    });
    assert!(shared.wait().is_ok());
    assert!(running.wait().is_ok());
    assert!(queued.wait().is_ok());
    // QueueFull was not sticky: the same request succeeds once room exists.
    let retried = farm.try_submit(Request::Custom {
        label: "bp",
        nonce: 12,
        run: very_slow_job,
    });
    assert!(retried.wait().is_ok());
}

static GATE_OPEN: Mutex<bool> = Mutex::new(false);
static GATE: Condvar = Condvar::new();
static GATED_STARTED: AtomicUsize = AtomicUsize::new(0);

/// Holds its runner until the test opens the gate.
fn gated_job(_tech: &Technology) -> Result<Response, FarmError> {
    GATED_STARTED.fetch_add(1, Ordering::SeqCst);
    let mut open = GATE_OPEN.lock().unwrap();
    while !*open {
        open = GATE.wait(open).unwrap();
    }
    Ok(Response::Text("gated done".into()))
}

#[test]
fn blocking_submit_waits_for_a_backlog_slot() {
    static BLOCKED_RAN: AtomicUsize = AtomicUsize::new(0);
    fn blocked_job(_tech: &Technology) -> Result<Response, FarmError> {
        BLOCKED_RAN.fetch_add(1, Ordering::SeqCst);
        Ok(Response::Text("blocked done".into()))
    }
    let cfg = FarmConfig {
        queue_capacity: 1,
        ..FarmConfig::with_workers(1)
    };
    let farm = Farm::new(Technology::default_1p2um(), cfg);
    let gated = |nonce| Request::Custom {
        label: "slot",
        nonce,
        run: gated_job,
    };
    let running = farm.submit(gated(20));
    let deadline = Instant::now() + Duration::from_secs(10);
    while GATED_STARTED.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "the first job never started");
        std::thread::yield_now();
    }
    // The runner is held inside the first job, so this fills the slot.
    let queued = farm.submit(gated(21));
    let blocked_req = Request::Custom {
        label: "slot",
        nonce: 22,
        run: blocked_job,
    };
    let returned = AtomicUsize::new(0);
    let blocked = std::thread::scope(|s| {
        let submitter = s.spawn(|| {
            let h = farm.submit(blocked_req);
            returned.store(1, Ordering::SeqCst);
            h
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            returned.load(Ordering::SeqCst),
            0,
            "submit returned with the backlog full"
        );
        *GATE_OPEN.lock().unwrap() = true;
        GATE.notify_all();
        submitter.join().unwrap()
    });
    assert!(blocked.wait().is_ok());
    assert!(running.wait().is_ok());
    assert!(queued.wait().is_ok());
    assert_eq!(BLOCKED_RAN.load(Ordering::SeqCst), 1);
    assert_eq!(farm.stats().rejected, 0);
}

#[test]
fn shutdown_runs_accepted_jobs_before_returning() {
    fn quick_job(_tech: &Technology) -> Result<Response, FarmError> {
        Ok(Response::Text("quick".into()))
    }
    let mut farm = Farm::new(Technology::default_1p2um(), FarmConfig::with_workers(1));
    let blocker = farm.submit(Request::Custom {
        label: "drain",
        nonce: 30,
        run: slow_sleeper,
    });
    let queued: Vec<_> = (0..4)
        .map(|i| {
            farm.submit(Request::Custom {
                label: "drain",
                nonce: 31 + i,
                run: quick_job,
            })
        })
        .collect();
    farm.shutdown();
    // Already resolved when `shutdown` returns, and resolved `Ok`: the
    // backlog was run, not failed with `ShuttingDown`.
    assert!(matches!(blocker.peek(), Some(Ok(_))));
    for h in &queued {
        assert!(matches!(h.peek(), Some(Ok(_))), "got {:?}", h.peek());
    }
    assert_eq!(farm.stats().executed, 5);
}

fn slow_sleeper(_tech: &Technology) -> Result<Response, FarmError> {
    std::thread::sleep(Duration::from_millis(100));
    Ok(Response::Text("slept".into()))
}

type JobFn = fn(&Technology) -> Result<Response, FarmError>;

static START_ORDER: Mutex<Vec<u64>> = Mutex::new(Vec::new());

fn ordered_job<const N: u64>(_tech: &Technology) -> Result<Response, FarmError> {
    START_ORDER.lock().unwrap().push(N);
    Ok(Response::Text(N.to_string()))
}

#[test]
fn one_worker_starts_jobs_in_admission_order() {
    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::with_workers(1));
    // Hold the runner so every ordered job sits in the backlog together.
    let blocker = farm.submit(Request::Custom {
        label: "order",
        nonce: 40,
        run: slow_sleeper,
    });
    let jobs: [JobFn; 8] = [
        ordered_job::<0>,
        ordered_job::<1>,
        ordered_job::<2>,
        ordered_job::<3>,
        ordered_job::<4>,
        ordered_job::<5>,
        ordered_job::<6>,
        ordered_job::<7>,
    ];
    let handles: Vec<_> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, run)| {
            farm.submit(Request::Custom {
                label: "order",
                nonce: 41 + i as u64,
                run,
            })
        })
        .collect();
    assert!(blocker.wait().is_ok());
    for h in &handles {
        assert!(h.wait().is_ok());
    }
    assert_eq!(*START_ORDER.lock().unwrap(), (0..8).collect::<Vec<u64>>());
}

#[test]
fn concurrent_producers_at_a_small_backlog_lose_nothing() {
    fn tiny_job(_tech: &Technology) -> Result<Response, FarmError> {
        Ok(Response::Text("tiny".into()))
    }
    let cfg = FarmConfig {
        queue_capacity: 4,
        ..FarmConfig::with_workers(2)
    };
    let farm = Farm::new(Technology::default_1p2um(), cfg);
    let handles: Vec<_> = std::thread::scope(|s| {
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let farm = &farm;
                s.spawn(move || {
                    (0..50u64)
                        .map(|i| {
                            farm.submit(Request::Custom {
                                label: "producers",
                                nonce: p * 100 + i,
                                run: tiny_job,
                            })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        producers
            .into_iter()
            .flat_map(|p| p.join().unwrap())
            .collect()
    });
    assert_eq!(handles.len(), 200);
    for h in &handles {
        assert!(h.wait().is_ok());
    }
    let stats = farm.stats();
    assert_eq!(stats.executed, 200, "{stats:?}");
    assert_eq!(stats.deduped + stats.cache_hits + stats.rejected, 0);
}

#[test]
fn shutdown_rejects_new_submissions() {
    let mut farm = Farm::new(Technology::default_1p2um(), FarmConfig::with_workers(1));
    farm.shutdown();
    let h = farm.submit(design(120.0));
    assert_eq!(h.wait().unwrap_err(), FarmError::ShuttingDown);
}

/// Netlist-estimation jobs exercise the SPICE sparse solver; with
/// `isolate_solver_cache` set (the default) every job starts with a cold
/// symbolic-factorisation cache, so each distinct job re-analyses its
/// pattern — visible as cache misses — and the farm exposes the counters
/// through `solver_cache_report()`.
#[test]
fn netlist_jobs_reset_solver_cache_and_report_it() {
    use ape_netlist::{Circuit, SourceWaveform};

    fn ladder(r: f64) -> Box<Circuit> {
        let mut c = Circuit::new("ladder");
        let mut prev = c.node("n0");
        c.add_vsource("VIN", prev, Circuit::GROUND, 1.0, 1.0, SourceWaveform::Dc)
            .unwrap();
        for k in 1..=9 {
            let next = c.node(&format!("n{k}"));
            c.add_resistor(&format!("R{k}"), prev, next, r).unwrap();
            c.add_capacitor(&format!("C{k}"), next, Circuit::GROUND, 10e-12)
                .unwrap();
            prev = next;
        }
        Box::new(c)
    }

    let farm = Farm::new(Technology::default_1p2um(), FarmConfig::with_workers(1));
    let (_, misses_before, _) = ape_spice::symbolic_cache_stats();
    for r in [1e3, 2e3] {
        let circuit = ladder(r);
        let output = circuit.find_node("n9").expect("ladder output node");
        let resp = farm
            .submit(Request::NetlistEstimate { circuit, output })
            .wait()
            .expect("netlist estimate succeeds");
        assert!(resp.as_netlist().is_some());
    }
    let (_, misses_after, _) = ape_spice::symbolic_cache_stats();
    assert!(
        misses_after >= misses_before + 2,
        "each isolated job should re-analyse: {misses_before} -> {misses_after}"
    );
    let report = farm.solver_cache_report();
    assert!(
        report.contains("solver symbolic cache"),
        "unexpected report: {report}"
    );
}

/// Regression: a panicking job must not poison the single-flight cache.
/// Its waiters (the owner and every deduplicated submission) all receive
/// `Panicked`, and the *next* submission of the same key re-owns the entry
/// and can succeed — at one worker and at eight.
#[test]
fn panicking_job_does_not_poison_the_cache() {
    for workers in [1usize, 8] {
        let farm = Farm::new(
            Technology::default_1p2um(),
            FarmConfig::with_workers(workers),
        );
        let req = Request::Custom {
            label: "panic-then-recover",
            nonce: 77,
            run: panicking_job,
        };
        let handles: Vec<_> = (0..4).map(|_| farm.submit(req.clone())).collect();
        for h in handles {
            match h.wait() {
                Err(FarmError::Panicked(_)) => {}
                other => panic!("expected Panicked at {workers} workers, got {other:?}"),
            }
        }
        // The failed flight is reclaimed: an honest job under the same key
        // runs and succeeds instead of being served the stale panic.
        fn honest_job(_tech: &Technology) -> Result<Response, FarmError> {
            Ok(Response::Text("recovered".into()))
        }
        let again = farm.submit(Request::Custom {
            label: "panic-then-recover",
            nonce: 77,
            run: honest_job,
        });
        match again.wait() {
            Ok(Response::Text(s)) => assert_eq!(s, "recovered"),
            other => panic!("expected recovery at {workers} workers, got {other:?}"),
        }
        assert!(farm.stats().panicked >= 1);
    }
}
