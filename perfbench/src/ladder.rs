//! The traced run: a layer ladder that replays one workload's generated
//! inputs at each layer's public entry point, from the outside in:
//!
//! ```text
//! Client::call → serve_stream → Farm::submit → OpAmp::design_many_on
//!              → OpAmp::design (warm / cold)
//! ```
//!
//! plus the paper path (`synthesize`, `audit_candidate`,
//! `dc_operating_point`, `ac_sweep`). The difference between adjacent
//! rungs is the share of the layer between them. Counters come from
//! public functions the layers already expose and from an `ape_probe`
//! sink; the benchmark adds no instrumentation inside the program.

use crate::checks::{check_reply, Verdict};
use crate::e2e::{self, Run, Synth};
use crate::inputs::{self, Design, Stream};
use crate::trace::{self, self_ns_delta, LayerSink};
use crate::util::{hist_p50, mean, median, median_timed, quantile, rss_kb, Tally};
use crate::wire::{self, next_req};
use ape_core::graph::{reset_thread_graph, thread_graph_stats, thread_graph_totals};
use ape_core::opamp::OpAmp;
use ape_farm::{Farm, FarmConfig, Request};
use ape_netlist::Technology;
use ape_oblx::{audit_candidate, build_candidate};
use ape_serve::client::decode_reply;
use ape_serve::{serve_stream, standalone_state};
use ape_spice::{ac_sweep, dc_operating_point, decade_frequencies};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.client_p50_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.unseen_us", "us"),
    ("serve.stream_us", "us"),
    ("serve.open_p50_ms", "ms"),
    ("serve.open_p99_ms", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("farm.submit_us", "us"),
    ("farm.job_p50_us", "us"),
    ("farm.job_mean_us", "us"),
    ("farm.queue_wait_p50_us", "us"),
    ("farm.cache_hit_frac", "frac"),
    ("farm.rejected", "count"),
    ("farm.dispatch_us", "us"),
    ("farm.retained_kb_per_design", "kB"),
    ("exec.design_many_us", "us"),
    ("graph.shared_hits", "count"),
    ("graph.warm_design_us", "us"),
    ("graph.cold_design_us", "us"),
    ("graph.memo_saving_frac", "frac"),
    ("graph.hit_frac", "frac"),
    ("graph.evictions", "count"),
    ("mos.sizing_self_us", "us"),
    ("graph.l2_self_us", "us"),
    ("graph.l3_self_us", "us"),
    ("core.ape_seed_ms", "ms"),
    ("oblx.seeded_s", "s"),
    ("oblx.blind_s", "s"),
    ("oblx.seeded_met", "count"),
    ("oblx.blind_met", "count"),
    ("oblx.evals_seeded", "count"),
    ("oblx.evals_blind", "count"),
    ("oblx.eval_us_seeded", "us"),
    ("oblx.eval_us_blind", "us"),
    ("oblx.audit_ms", "ms"),
    ("spice.dc_us", "us"),
    ("spice.ac_sweep_us", "us"),
    ("spice.nr_iters_per_eval", "count"),
    ("graph.candidate_hit_frac", "frac"),
    ("anneal.accept_frac", "frac"),
    ("probe.trace_overhead_frac", "frac"),
];

/// Designs replayed over TCP and the in-memory stream on the sweep
/// workload (its full grid would take hours at the ~45 req/s the daemon
/// answers a closed loop with when this was written).
const SWEEP_REQUEST_SAMPLE: usize = 2000;
/// Designs in the sweep's warm/cold rung: above the graph's 4,096-entry
/// per-kind memo capacity, so evictions show.
const SWEEP_DESIGN_SAMPLE: usize = 6000;
/// Requests a timed in-process rung sends at most, whatever its time.
const MAX_RUNG_REQUESTS: usize = 20_000;
/// Synthesis tasks the request-path workloads take from their own inputs.
const PAPER_SAMPLE: usize = 2;

/// What one workload feeds the ladder.
struct Inputs {
    /// Designs for the request rungs (TCP, stream, farm, design loops).
    requests: Vec<Design>,
    /// Designs for the batch rungs (`SweepPlan::run`/`design_many_on`).
    batch: Vec<Design>,
    /// Synthesis tasks with their annealing seeds.
    tasks: Vec<(Design, u64)>,
}

fn inputs_for(workload: &str, seed: u64) -> (Inputs, Option<ape_farm::SweepPlan>) {
    match workload {
        "wire" => {
            let pool = inputs::wire_pool(seed);
            let tasks = paper_sample(seed, &pool);
            (
                Inputs {
                    requests: pool.clone(),
                    batch: pool,
                    tasks,
                },
                None,
            )
        }
        "sweep" => {
            let plan = inputs::sweep_plan(seed);
            let grid = inputs::sweep_designs(&plan);
            let requests = inputs::sample(seed, &grid, SWEEP_REQUEST_SAMPLE);
            let tasks = paper_sample(seed, &grid);
            (
                Inputs {
                    requests,
                    batch: grid,
                    tasks,
                },
                Some(plan),
            )
        }
        _ => {
            let tasks = e2e::table1_tasks();
            let designs: Vec<Design> = tasks.iter().map(|(d, _)| *d).collect();
            (
                Inputs {
                    requests: designs.clone(),
                    batch: designs,
                    tasks,
                },
                None,
            )
        }
    }
}

fn paper_sample(seed: u64, designs: &[Design]) -> Vec<(Design, u64)> {
    inputs::sample(seed ^ 0x5eed, designs, PAPER_SAMPLE)
        .into_iter()
        .enumerate()
        .map(|(i, d)| (d, 1000 + seed % 1000 + i as u64))
        .collect()
}

struct Ladder {
    tech: Technology,
    m: BTreeMap<&'static str, f64>,
    tally: Tally,
    problems: Vec<String>,
    /// Digest of the traced `SweepPlan::run` report (sweep only).
    sweep_digest: Option<u64>,
}

impl Ladder {
    fn put(&mut self, name: &'static str, v: f64) {
        self.m.insert(name, v);
    }

    fn verdict(&mut self, v: Verdict) {
        self.tally.attempted += 1;
        match v {
            Verdict::Ok => {}
            Verdict::Mismatch => self.tally.mismatches += 1,
            Verdict::Refused => self.tally.refused += 1,
            Verdict::Error => self.tally.errors += 1,
        }
    }
}

pub fn run(workload: &str, seed: u64, seconds: f64) -> Run {
    let (inp, plan) = inputs_for(workload, seed);
    let mut l = Ladder {
        tech: Technology::default_1p2um(),
        m: BTreeMap::new(),
        tally: Tally::default(),
        problems: Vec::new(),
        sweep_digest: None,
    };
    let requests = Arc::new(inp.requests);
    let expected = Arc::new(e2e::expected_renders(&l.tech, &requests));

    // Untraced half of the overhead pair first; every rung after it runs
    // with the span recorder and the probe sink on.
    let untraced = primary(&mut l, workload, seed, seconds, plan.as_ref(), &inp.tasks, &requests, &expected, 0);
    trace::set_recording(true);
    let sink = LayerSink::install();
    let root = trace::span("ladder", 0, 0);
    let traced = primary(
        &mut l,
        workload,
        seed,
        seconds,
        plan.as_ref(),
        &inp.tasks,
        &requests,
        &expected,
        root.id(),
    );
    l.put("probe.trace_overhead_frac", traced / untraced - 1.0);

    if workload != "wire" {
        let daemon = wire::start_daemon(l.tech.clone());
        match daemon {
            Ok(d) => {
                tcp_rungs(&mut l, &d, seed, 0.1 * seconds, &requests, &expected, root.id(), false);
                d.stop();
            }
            Err(e) => l.problems.push(format!("daemon: {e}")),
        }
    }
    stream_rung(&mut l, seed, 0.05 * seconds, &requests, &expected, root.id());
    farm_rungs(&mut l, workload, plan.as_ref(), &inp.batch, &requests, &expected, 0.05 * seconds, root.id());
    design_rungs(&mut l, workload, seed, &requests, &inp.batch, &sink, root.id());
    paper_rungs(&mut l, &inp.tasks, &sink, root.id());
    drop(root);
    trace::set_recording(false);
    match trace::write_chrome_trace(workload, seed) {
        Ok(path) => eprintln!("ladder[{workload}]: {} spans -> {path}", trace::recorded()),
        Err(e) => eprintln!("ladder[{workload}]: could not write the trace: {e}"),
    }

    let mut run = Run::new();
    for (name, unit) in PER_LAYER {
        match l.m.get(name) {
            Some(v) => run.metrics.put(name, *v, unit),
            None => l.problems.push(format!("per-layer metric {name} was not measured")),
        }
    }
    run.tally = l.tally;
    run.problems = l.problems;
    run
}

/// The workload's own end-to-end operation, run once; returns its cost
/// (mean request latency, sweep wall, or seeded-batch wall) so the traced
/// and untraced runs can be compared. With recording on, it is also the
/// first traced rung.
#[allow(clippy::too_many_arguments)]
fn primary(
    l: &mut Ladder,
    workload: &str,
    seed: u64,
    seconds: f64,
    plan: Option<&ape_farm::SweepPlan>,
    tasks: &[(Design, u64)],
    requests: &Arc<Vec<Design>>,
    expected: &Arc<Vec<Option<String>>>,
    parent: u64,
) -> f64 {
    let span = trace::span("rung.primary", parent, 0);
    match (workload, plan) {
        ("wire", _) => match wire::start_daemon(l.tech.clone()) {
            Ok(d) => {
                let cost = tcp_rungs(l, &d, seed, 0.15 * seconds, requests, expected, span.id(), true);
                d.stop();
                cost
            }
            Err(e) => {
                l.problems.push(format!("daemon: {e}"));
                1.0
            }
        },
        ("sweep", Some(plan)) => {
            let farm = e2e::sweep_farm(&l.tech);
            let rss0 = rss_kb();
            let (report, wall) = {
                let _s = trace::span("farm.sweep_run", span.id(), 0);
                e2e::timed_sweep(plan, &farm)
            };
            let reports = [report];
            let retained = (rss_kb() - rss0) / plan.len() as f64;
            put_farm_stats(l, &farm, retained);
            l.put("farm.sweep_us", wall * 1e6 / plan.len() as f64);
            l.tally.attempted += plan.len() as u64;
            let failed: usize = reports
                .iter()
                .map(|r| r.records.len() - r.successes().count())
                .sum();
            l.tally.errors += failed as u64;
            let d = crate::checks::pass_digest(&reports);
            if l.sweep_digest.is_some_and(|prev| prev != d) {
                l.tally.mismatches += 1;
                l.problems.push("traced and untraced sweeps differ".into());
            }
            l.sweep_digest = Some(d);
            wall
        }
        _ => {
            // The seeded batch is short; the median of three steadies it.
            let (wall, errors) = median_timed(3, || {
                tasks
                    .iter()
                    .filter(|(d, s)| {
                        let _s = trace::span("oblx.synthesize_seeded", span.id(), next_req());
                        e2e::synthesize_one(&l.tech, d, *s, true).is_err()
                    })
                    .count()
            });
            l.tally.attempted += tasks.len() as u64;
            l.tally.errors += errors as u64;
            wall
        }
    }
}

fn put_farm_stats(l: &mut Ladder, farm: &Farm, retained_kb: f64) {
    let s = farm.stats();
    let job = farm.job_latency_ns();
    l.put("farm.job_p50_us", hist_p50(&job) / 1e3);
    l.put("farm.job_mean_us", job.mean() / 1e3);
    l.put("farm.queue_wait_p50_us", hist_p50(&farm.queue_wait_ns()) / 1e3);
    l.put(
        "farm.cache_hit_frac",
        s.cache_hits as f64 / s.submitted.max(1) as f64,
    );
    l.put("farm.rejected", s.rejected as f64);
    l.put("farm.retained_kb_per_design", retained_kb);
    l.put(
        "graph.shared_hits",
        farm.shared_memo().map_or(0.0, |m| m.stats().hits as f64),
    );
}

/// The TCP rungs on a running daemon: closed loop (`Client::call`) for
/// `secs`, then the open loop at 500 req/s for `secs`. Returns the mean
/// closed-loop latency, ms. `farm_stats` reports the daemon's farm as the
/// workload's farm.
#[allow(clippy::too_many_arguments)]
fn tcp_rungs(
    l: &mut Ladder,
    daemon: &ape_serve::ServerHandle,
    seed: u64,
    secs: f64,
    requests: &Arc<Vec<Design>>,
    expected: &Arc<Vec<Option<String>>>,
    parent: u64,
    farm_stats: bool,
) -> f64 {
    let rss0 = rss_kb();
    let clients = match wire::connect(daemon.addr()) {
        Ok(c) => c,
        Err(e) => {
            l.problems.push(format!("connect: {e}"));
            return 1.0;
        }
    };
    let closed = {
        let s = trace::span("rung.client_call", parent, 0);
        wire::closed_loop(clients, requests, expected, seed, secs, s.id())
    };
    l.tally.add(&closed.tally);
    let client_p50_us = median(&closed.lat_ms) * 1e3;
    let state = daemon.state();
    let snap = state.metrics_snapshot();
    let server_p50_us = snap
        .values
        .get("ape.serve.request.latency_ns")
        .map_or(0.0, |h| hist_p50(h) / 1e3);
    l.put("serve.client_p50_us", client_p50_us);
    l.put("serve.server_p50_us", server_p50_us);
    l.put("serve.unseen_us", client_p50_us - server_p50_us);
    let retained = (rss_kb() - rss0) / closed.lat_ms.len().max(1) as f64;
    if farm_stats {
        put_farm_stats(l, state.farm(), retained);
    }
    let open = {
        let s = trace::span("rung.open_loop", parent, 0);
        wire::open_loop(daemon.addr(), requests, expected, seed, secs, s.id())
    };
    match open {
        Ok(o) => {
            l.tally.add(&o.tally);
            l.put("serve.open_p50_ms", median(&o.lat_ms));
            l.put("serve.open_p99_ms", quantile(&o.lat_ms, 0.99));
            l.put("bench.gen_late_p99_ms", quantile(&o.late_ms, 0.99));
        }
        Err(e) => l.problems.push(format!("open loop: {e}")),
    }
    mean(&closed.lat_ms)
}

/// Request bytes in, one line at a time; end of input once the sender
/// hangs up.
struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(b) => {
                    self.buf = b;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Reply bytes out, forwarded line by line.
struct PipeWriter {
    tx: Sender<String>,
    line: Vec<u8>,
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        for &b in data {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.line).into_owned();
                self.line.clear();
                // A closed receiver only means the rung is over.
                let _ = self.tx.send(line);
            } else {
                self.line.push(b);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `serve_stream` over in-memory pipes: the whole daemon stack minus
/// TCP, one request in flight at a time, for `secs`.
fn stream_rung(
    l: &mut Ladder,
    seed: u64,
    secs: f64,
    requests: &Arc<Vec<Design>>,
    expected: &Arc<Vec<Option<String>>>,
    parent: u64,
) {
    let span = trace::span("rung.serve_stream", parent, 0);
    let state = standalone_state(l.tech.clone(), wire::server_config());
    let (req_tx, req_rx) = channel::<Vec<u8>>();
    let (rep_tx, rep_rx) = channel::<String>();
    let server = {
        let state = state.clone();
        std::thread::spawn(move || {
            let reader = PipeReader {
                rx: req_rx,
                buf: Vec::new(),
                pos: 0,
            };
            serve_stream(&state, reader, PipeWriter { tx: rep_tx, line: Vec::new() });
        })
    };
    let mut stream = Stream::closed(seed, 0, requests.len());
    let mut lat_us = Vec::new();
    let t0 = Instant::now();
    let mut id = 0u64;
    while t0.elapsed().as_secs_f64() < secs && lat_us.len() < MAX_RUNG_REQUESTS {
        id += 1;
        let i = stream.next_index();
        let mut line = inputs::design_line(id, &requests[i]);
        line.push('\n');
        let _s = trace::span("serve.stream_request", span.id(), next_req());
        let t = Instant::now();
        if req_tx.send(line.into_bytes()).is_err() {
            l.verdict(Verdict::Error);
            break;
        }
        let Ok(reply) = rep_rx.recv() else {
            l.verdict(Verdict::Error);
            break;
        };
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        let v = match decode_reply(&reply) {
            Ok(r) if r.id == id => check_reply(&r.outcome, &expected[i]),
            _ => Verdict::Error,
        };
        l.verdict(v);
    }
    drop(req_tx);
    let _ = server.join();
    l.put("serve.stream_us", median(&lat_us));
}

/// `Farm::submit` one request at a time, then the batch comparison that
/// gives the dispatch share: per-design wall of a whole batch through the
/// farm minus the same batch through `design_many_on`.
#[allow(clippy::too_many_arguments)]
fn farm_rungs(
    l: &mut Ladder,
    workload: &str,
    plan: Option<&ape_farm::SweepPlan>,
    batch: &[Design],
    requests: &Arc<Vec<Design>>,
    expected: &Arc<Vec<Option<String>>>,
    secs: f64,
    parent: u64,
) {
    let span = trace::span("rung.farm_submit", parent, 0);
    let cfg = wire::server_config();
    let farm = Farm::new(
        l.tech.clone(),
        FarmConfig {
            workers: cfg.workers,
            queue_capacity: cfg.queue_capacity,
            shared_graph: cfg.shared_graph,
            ..FarmConfig::default()
        },
    );
    let mut stream = Stream::closed(0, 0, requests.len());
    let mut lat_us = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < secs && lat_us.len() < MAX_RUNG_REQUESTS {
        let i = stream.next_index();
        let (topology, spec) = requests[i];
        let _s = trace::span("farm.submit", span.id(), next_req());
        let t = Instant::now();
        let r = farm.submit(Request::OpAmpDesign { topology, spec }).wait();
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        let v = match r.as_ref().ok().and_then(|r| r.as_opamp()) {
            Some(amp) => {
                let got = ape_serve::proto::design_result(amp).render();
                if Some(&got) == expected[i].as_ref() {
                    Verdict::Ok
                } else {
                    Verdict::Mismatch
                }
            }
            None => Verdict::Error,
        };
        l.verdict(v);
    }
    l.put("farm.submit_us", median(&lat_us));
    if workload == "synth" {
        put_farm_stats(l, &farm, 0.0);
    }
    drop(span);

    // Dispatch share. The sweep compares `SweepPlan::run` with
    // `design_many_on` over its whole grid; the others batch-submit their
    // request list, repeated until it is a few thousand designs, on fresh
    // farms so the result cache cannot answer.
    let span = trace::span("rung.dispatch", parent, 0);
    let reps = (4000 / batch.len()).max(1);
    let farm_us = if plan.is_some() {
        l.m.get("farm.sweep_us").copied().unwrap_or(0.0)
    } else {
        let t = Instant::now();
        let rss0 = rss_kb();
        for _ in 0..reps {
            let f = Farm::new(l.tech.clone(), FarmConfig::with_workers(cfg.workers));
            let _s = trace::span("farm.batch", span.id(), 0);
            let handles: Vec<_> = batch
                .iter()
                .map(|&(topology, spec)| f.submit(Request::OpAmpDesign { topology, spec }))
                .collect();
            for h in handles {
                if h.wait().is_err() {
                    l.verdict(Verdict::Error);
                }
            }
        }
        if workload == "synth" {
            l.put("farm.retained_kb_per_design", (rss_kb() - rss0) / (reps * batch.len()) as f64);
        }
        t.elapsed().as_secs_f64() * 1e6 / (reps * batch.len()) as f64
    };
    // The same list through `design_many_on`: the sweep's whole grid in
    // one call, the others their batch `reps` times.
    let runs = if plan.is_some() { 1 } else { reps };
    let total = runs * batch.len();
    let t = Instant::now();
    let results: Vec<Vec<_>> = (0..runs)
        .map(|_| {
            let _s = trace::span("exec.design_many_on", span.id(), 0);
            OpAmp::design_many_on(ape_exec::Executor::global(), &l.tech, batch)
        })
        .collect();
    let exec_us = t.elapsed().as_secs_f64() * 1e6 / total as f64;
    let got = results.iter().flatten().filter(|r| r.is_ok()).count();
    l.tally.attempted += total as u64;
    l.tally.errors += (total - got) as u64;
    if let (Some(plan), Some(out)) = (plan, results.into_iter().next()) {
        let out: Vec<_> = out.into_iter().map(|r| r.map_err(|e| e.to_string())).collect();
        let report = crate::checks::report_from_designs(plan, &out);
        if let Err(e) = crate::checks::check_sweep(&[report], l.sweep_digest.unwrap_or(0)) {
            l.tally.mismatches += 1;
            l.problems.push(format!("design_many_on rung vs SweepPlan::run: {e}"));
        }
    }
    l.put("exec.design_many_us", exec_us);
    l.put("farm.dispatch_us", farm_us - exec_us);
}

/// `OpAmp::design` on this thread: warm graph, then cold (graph reset
/// before every design, with the probe sink collecting self times), then
/// the ten-design APE seeding cost.
fn design_rungs(
    l: &mut Ladder,
    workload: &str,
    seed: u64,
    requests: &[Design],
    batch: &[Design],
    sink: &LayerSink,
    parent: u64,
) {
    let designs: Vec<Design> = if workload == "sweep" {
        inputs::sample(seed ^ 0xd5, batch, SWEEP_DESIGN_SAMPLE)
    } else {
        // Enough repeats of the list for a steady per-design time.
        let reps = (2000 / requests.len()).max(1);
        (0..reps).flat_map(|_| requests.iter().copied()).collect()
    };
    let span = trace::span("rung.design_warm", parent, 0);
    reset_thread_graph();
    for &(t, s) in &designs {
        let _ = OpAmp::design(&l.tech, t, s);
    }
    let t0 = Instant::now();
    for &(t, s) in &designs {
        let r = OpAmp::design(&l.tech, t, s);
        l.verdict(if r.is_ok() { Verdict::Ok } else { Verdict::Error });
    }
    let warm = t0.elapsed().as_secs_f64() * 1e6 / designs.len() as f64;
    let totals = thread_graph_totals();
    l.put("graph.hit_frac", totals.hit_rate());
    l.put("graph.evictions", totals.evictions as f64);
    drop(span);

    let span = trace::span("rung.design_cold", parent, 0);
    let before = sink.self_times();
    let mut cold_ns = 0.0;
    for &(t, s) in &designs {
        reset_thread_graph();
        let _s = trace::span("core.design_cold", span.id(), next_req());
        let t0 = Instant::now();
        let r = OpAmp::design(&l.tech, t, s);
        cold_ns += t0.elapsed().as_secs_f64() * 1e9;
        l.verdict(if r.is_ok() { Verdict::Ok } else { Verdict::Error });
    }
    let after = sink.self_times();
    let n = designs.len() as f64;
    let cold = cold_ns / 1e3 / n;
    l.put("graph.warm_design_us", warm);
    l.put("graph.cold_design_us", cold);
    l.put("graph.memo_saving_frac", 1.0 - warm / cold);
    l.put("mos.sizing_self_us", self_ns_delta(&before, &after, "ape.l1.") / 1e3 / n);
    l.put("graph.l2_self_us", self_ns_delta(&before, &after, "ape.l2.") / 1e3 / n);
    l.put("graph.l3_self_us", self_ns_delta(&before, &after, "ape.l3.") / 1e3 / n);
    drop(span);

    let span = trace::span("rung.ape_seed", parent, 0);
    let ten: Vec<Design> = requests.iter().cycle().take(10).copied().collect();
    let (secs, ()) = median_timed(5, || {
        reset_thread_graph();
        for &(t, s) in &ten {
            let _ = OpAmp::design(&l.tech, t, s);
        }
    });
    l.put("core.ape_seed_ms", secs * 1e3);
    drop(span);
}

/// The paper path: seeded then blind synthesis of every task, then the
/// audit and SPICE calls replayed on each best point.
fn paper_rungs(l: &mut Ladder, tasks: &[(Design, u64)], sink: &LayerSink, parent: u64) {
    let span = trace::span("rung.synthesize", parent, 0);
    let counter = |name: &str| sink.counter(name) as f64;
    let (moves0, acc0, nr0) = (
        counter("anneal.moves"),
        counter("anneal.accepted"),
        counter("spice.dc.nr_iters"),
    );
    let mut pass: Vec<Synth> = Vec::new();
    let mut designs: Vec<Design> = Vec::new();
    // Each synthesis starts on a fresh graph, so its candidate memo traffic
    // is read right after it.
    let (mut cand_hits, mut cand_total) = (0usize, 0usize);
    for seeded in [true, false] {
        for (d, seed) in tasks {
            let _s = trace::span(
                if seeded { "oblx.synthesize_seeded" } else { "oblx.synthesize_blind" },
                span.id(),
                next_req(),
            );
            l.tally.attempted += 1;
            match e2e::synthesize_one(&l.tech, d, *seed, seeded) {
                Ok(s) => {
                    pass.push(s);
                    designs.push(*d);
                }
                Err(_) => l.tally.errors += 1,
            }
            if let Some(k) = thread_graph_stats().into_iter().find(|k| k.kind == "oblx.candidate") {
                cand_hits += k.stats.hits + k.stats.shared_hits;
                cand_total += k.stats.total();
            }
        }
    }
    l.put("graph.candidate_hit_frac", cand_hits as f64 / cand_total.max(1) as f64);
    let moves = counter("anneal.moves") - moves0;
    l.put("anneal.accept_frac", (counter("anneal.accepted") - acc0) / moves.max(1.0));
    let evals_all: f64 = pass.iter().map(|s| s.outcome.evals as f64).sum();
    l.put("spice.nr_iters_per_eval", (counter("spice.dc.nr_iters") - nr0) / evals_all.max(1.0));
    let (seeded_met, blind_met, seeded_errors) = e2e::synth_counts(&pass);
    if workload_is_table1(tasks) {
        if let Err(e) = crate::checks::check_synth(seeded_met, blind_met, seeded_errors) {
            l.tally.mismatches += 1;
            l.problems.push(e);
        }
    }
    l.put("oblx.seeded_met", seeded_met as f64);
    l.put("oblx.blind_met", blind_met as f64);
    drop(span);

    // Audit and SPICE replays on the best points.
    let span = trace::span("rung.audit", parent, 0);
    let mut audit_s = vec![0.0; pass.len()];
    for (k, (s, d)) in pass.iter().zip(&designs).enumerate() {
        let _s = trace::span("oblx.audit_candidate", span.id(), next_req());
        let t = Instant::now();
        let _ = audit_candidate(&l.tech, d.0, &d.1, &s.outcome.best, 0.25);
        audit_s[k] = t.elapsed().as_secs_f64();
    }
    l.put("oblx.audit_ms", mean(&audit_s) * 1e3);
    for (seeded, wall, evals, us) in [
        (true, "oblx.seeded_s", "oblx.evals_seeded", "oblx.eval_us_seeded"),
        (false, "oblx.blind_s", "oblx.evals_blind", "oblx.eval_us_blind"),
    ] {
        let pick = |f: &dyn Fn(usize, &Synth) -> f64| -> f64 {
            pass.iter()
                .enumerate()
                .filter(|(_, s)| s.seeded == seeded)
                .map(|(k, s)| f(k, s))
                .sum()
        };
        let w = pick(&|_, s| s.wall);
        let a = pick(&|k, _| audit_s[k]);
        let e = pick(&|_, s| s.outcome.evals as f64);
        l.put(wall, w);
        l.put(evals, e);
        l.put(us, (w - a) * 1e6 / e.max(1.0));
    }
    drop(span);

    let span = trace::span("rung.spice", parent, 0);
    let freqs = decade_frequencies(100.0, 2e9, 8).unwrap_or_default();
    let (mut dc_us, mut ac_us) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (s, d) in pass.iter().zip(&designs) {
            let Ok((ckt, _)) = build_candidate(&l.tech, d.0, &d.1, &s.outcome.best) else {
                continue;
            };
            let req = next_req();
            let t = Instant::now();
            let op = {
                let _s = trace::span("spice.dc_operating_point", span.id(), req);
                dc_operating_point(&ckt, &l.tech)
            };
            dc_us.push(t.elapsed().as_secs_f64() * 1e6);
            let Ok(op) = op else { continue };
            let t = Instant::now();
            let _s = trace::span("spice.ac_sweep", span.id(), req);
            let _ = ac_sweep(&ckt, &l.tech, &op, &freqs);
            ac_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    l.put("spice.dc_us", median(&dc_us));
    l.put("spice.ac_sweep_us", median(&ac_us));
    drop(span);
}

/// The Table-1 claim (seeded ≥ blind) is only checked on the Table-1 set.
fn workload_is_table1(tasks: &[(Design, u64)]) -> bool {
    tasks.len() == e2e::table1_tasks().len()
}
