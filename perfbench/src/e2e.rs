//! The untraced runs: each workload's end-to-end metrics, as a caller of
//! the system sees them.

use crate::checks::{self, check_sweep, expected_render};
use crate::inputs::{self, Design};
use crate::util::{median, median_timed, nproc, peak_rss_mb, tail, Metrics, Tally};
use crate::wire;
use ape_core::graph::reset_thread_graph;
use ape_core::opamp::OpAmp;
use ape_farm::{Farm, FarmConfig, SweepPlan, SweepReport};
use ape_netlist::Technology;
use ape_oblx::{design_point_from_ape, synthesize, InitialPoint, SynthesisOptions, SynthesisOutcome};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; the median is reported.
pub const SETUP_REPS: usize = 15;
/// The Table-1/4 evaluation budget.
pub const SYNTH_EVALS: usize = 400;

/// One finished run: metrics, failure tally, and whether every check held.
pub struct Run {
    pub metrics: Metrics,
    pub tally: Tally,
    pub problems: Vec<String>,
}

impl Run {
    pub fn new() -> Run {
        Run {
            metrics: Metrics::default(),
            tally: Tally::default(),
            problems: Vec::new(),
        }
    }

    /// Metrics every workload reports.
    pub fn finish(&mut self, setup_s: f64, ops_per_s: f64, p50_ms: f64, tail_ms: f64) {
        self.metrics.put("setup_s", setup_s, "s");
        self.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
        self.metrics.put("ok_frac", self.tally.ok_frac(), "frac");
        self.metrics.put("ops_per_s", ops_per_s, "1/s");
        self.metrics.put("p50_ms", p50_ms, "ms");
        self.metrics.put("tail_ms", tail_ms, "ms");
    }
}

/// Direct renders of every design, on a cold graph.
pub fn expected_renders(tech: &Technology, designs: &[Design]) -> Vec<Option<String>> {
    reset_thread_graph();
    designs.iter().map(|d| expected_render(tech, d)).collect()
}

/// The wire workload's system set-up: daemon bind + spawn (its
/// `Farm::new`) and the closed-loop connections.
pub struct WireSetup {
    pub daemon: ape_serve::ServerHandle,
    pub clients: Vec<ape_serve::Client>,
}

pub fn wire_setup() -> std::io::Result<WireSetup> {
    ape_exec::Executor::global();
    let daemon = wire::start_daemon(Technology::default_1p2um())?;
    let clients = wire::connect(daemon.addr())?;
    Ok(WireSetup { daemon, clients })
}

pub fn run_wire(seed: u64, seconds: f64) -> Run {
    let mut run = Run::new();
    // The correctness reference is the benchmark's, not the system's, so
    // it is computed before the set-up is timed.
    let pool = Arc::new(inputs::wire_pool(seed));
    let expected = Arc::new(expected_renders(&Technology::default_1p2um(), &pool));
    let (setup_s, setup) = median_timed(SETUP_REPS, wire_setup);
    let setup = match setup {
        Ok(s) => s,
        Err(e) => {
            run.problems.push(format!("daemon setup failed: {e}"));
            run.tally.attempted = 1;
            run.tally.errors = 1;
            run.finish(setup_s, 0.0, 0.0, 0.0);
            return run;
        }
    };
    let out = wire::closed_loop(setup.clients, &pool, &expected, seed, seconds, 0);
    setup.daemon.stop();
    run.tally = out.tally;
    if out.tally.mismatches > 0 {
        run.problems.push(format!("{} replies differ from the direct design", out.tally.mismatches));
    }
    if let Err(e) = checks::self_test(first_render(&expected), None) {
        run.problems.push(e);
    }
    eprintln!(
        "wire: closed loop {} conns, {} requests in {:.2}s; {}",
        wire::CONNECTIONS,
        out.lat_ms.len(),
        out.secs,
        out.tally.describe()
    );
    run.finish(
        setup_s,
        out.completed as f64 / out.secs,
        median(&out.lat_ms),
        tail(&out.lat_ms),
    );
    run
}

pub fn first_render(expected: &[Option<String>]) -> Option<&str> {
    expected.iter().flatten().next().map(String::as_str)
}

/// The sweep farm: one in-flight job per core, other settings default.
pub fn sweep_farm(tech: &Technology) -> Farm {
    Farm::new(tech.clone(), FarmConfig::with_workers(nproc()))
}

pub struct SweepSetup {
    pub tech: Technology,
    pub plan: SweepPlan,
    pub farm: Farm,
}

pub fn sweep_setup(seed: u64) -> SweepSetup {
    ape_exec::Executor::global();
    let tech = Technology::default_1p2um();
    let plan = inputs::sweep_plan(seed);
    let farm = sweep_farm(&tech);
    SweepSetup { tech, plan, farm }
}

/// One timed `SweepPlan::run` of the whole grid; returns the report and
/// its wall seconds.
pub fn timed_sweep(plan: &SweepPlan, farm: &Farm) -> (SweepReport, f64) {
    let t = Instant::now();
    let report = plan.run(farm);
    (report, t.elapsed().as_secs_f64())
}

pub fn run_sweep(seed: u64, seconds: f64) -> Run {
    let mut run = Run::new();
    let (setup_s, setup) = median_timed(SETUP_REPS, || sweep_setup(seed));
    let SweepSetup { tech, plan, farm } = setup;
    let t0 = Instant::now();
    let mut farm = Some(farm);
    let mut walls = Vec::new();
    let mut reference = None;
    // Every pass runs the same grid on a fresh farm, so passes are alike
    // and the digest must repeat exactly.
    let last = loop {
        let f = farm.take().unwrap_or_else(|| sweep_farm(&tech));
        let (report, wall) = timed_sweep(&plan, &f);
        drop(f);
        walls.push(wall);
        run.tally.attempted += plan.len() as u64;
        let reports = [report];
        let d = *reference.get_or_insert_with(|| checks::pass_digest(&reports));
        if let Err(e) = check_sweep(&reports, d) {
            run.tally.mismatches += plan.len() as u64;
            run.problems.push(format!("pass {}: {e}", walls.len()));
        }
        if t0.elapsed().as_secs_f64() + median(&walls) > seconds {
            break reports;
        }
    };
    if let Err(e) = checks::self_test(None, Some(&last)) {
        run.problems.push(e);
    }
    eprintln!(
        "sweep: {} passes of {} points, digest {:#018x}, walls {:.3?}",
        walls.len(),
        plan.len(),
        reference.unwrap_or(0),
        walls
    );
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    run.finish(setup_s, plan.len() as f64 / median(&walls), median(&ms), tail(&ms));
    run
}

/// One synthesis of the paper path and its cost.
pub struct Synth {
    pub seeded: bool,
    pub outcome: SynthesisOutcome,
    /// Wall seconds including, for a seeded run, the APE sizing.
    pub wall: f64,
}

/// Synthesizes `design` from an APE seed (±20 %) or blind, with the fixed
/// annealing `seed` and the Table-1/4 evaluation budget.
pub fn synthesize_one(tech: &Technology, design: &Design, seed: u64, seeded: bool) -> Result<Synth, String> {
    let (topology, spec) = *design;
    let opts = SynthesisOptions {
        max_evals: SYNTH_EVALS,
        seed,
        ..SynthesisOptions::default()
    };
    // Each synthesis starts cold, as a farm job does: the solver's cached
    // pivot orders depend on what ran before them on the thread.
    reset_thread_graph();
    ape_spice::reset_symbolic_cache();
    let t = Instant::now();
    let init = if seeded {
        let amp = OpAmp::design(tech, topology, spec).map_err(|e| e.to_string())?;
        InitialPoint::ApeSeeded {
            point: design_point_from_ape(tech, &amp),
            interval_frac: 0.2,
        }
    } else {
        InitialPoint::Blind
    };
    let outcome = synthesize(tech, topology, &spec, &init, &opts).map_err(|e| e.to_string())?;
    Ok(Synth {
        seeded,
        outcome,
        wall: t.elapsed().as_secs_f64(),
    })
}

/// One pass of the paper path: every task seeded, then every task blind.
pub fn synth_pass(tech: &Technology, tasks: &[(Design, u64)], tally: &mut Tally) -> Vec<Synth> {
    let mut out = Vec::new();
    for seeded in [true, false] {
        for (d, seed) in tasks {
            tally.attempted += 1;
            match synthesize_one(tech, d, *seed, seeded) {
                Ok(s) => out.push(s),
                Err(_) => tally.errors += 1,
            }
        }
    }
    out
}

/// Seeded-met, blind-met and seeded audit errors of one pass.
pub fn synth_counts(pass: &[Synth]) -> (usize, usize, usize) {
    let met = |seeded: bool| {
        pass.iter()
            .filter(|s| s.seeded == seeded && s.outcome.meets_spec())
            .count()
    };
    let seeded_errors = pass
        .iter()
        .filter(|s| s.seeded && s.outcome.audit.is_err())
        .count();
    (met(true), met(false), seeded_errors)
}

/// The Table-1 tasks as designs with their annealing seeds.
pub fn table1_tasks() -> Vec<(Design, u64)> {
    inputs::synth_tasks()
        .into_iter()
        .map(|(t, seed)| ((t.topology, t.spec), seed))
        .collect()
}

pub fn run_synth(_seed: u64, seconds: f64) -> Run {
    let mut run = Run::new();
    let (setup_s, (tech, tasks)) = median_timed(SETUP_REPS, || {
        ape_exec::Executor::global();
        (Technology::default_1p2um(), table1_tasks())
    });
    let t0 = Instant::now();
    // Synthesis walls, per task and start across passes.
    let mut by_slot: Vec<Vec<f64>> = Vec::new();
    let mut pass_walls = Vec::new();
    let mut fingerprint = None;
    loop {
        let tp = Instant::now();
        let pass = synth_pass(&tech, &tasks, &mut run.tally);
        pass_walls.push(tp.elapsed().as_secs_f64());
        by_slot.resize(pass.len().max(by_slot.len()), Vec::new());
        for (k, s) in pass.iter().enumerate() {
            by_slot[k].push(s.wall);
        }
        let (seeded_met, blind_met, seeded_errors) = synth_counts(&pass);
        if let Err(e) = checks::check_synth(seeded_met, blind_met, seeded_errors) {
            run.tally.mismatches += 1;
            run.problems.push(e);
        }
        // The searches are seeded: every pass must land on the same points.
        let fp: Vec<(usize, u64)> = pass
            .iter()
            .map(|s| (s.outcome.evals, s.outcome.cost.to_bits()))
            .collect();
        if *fingerprint.get_or_insert_with(|| fp.clone()) != fp {
            run.tally.mismatches += 1;
            run.problems.push("synthesis outcomes differ between passes".into());
        }
        let seeded_s: f64 = pass.iter().filter(|s| s.seeded).map(|s| s.wall).sum();
        let blind_s: f64 = pass.iter().filter(|s| !s.seeded).map(|s| s.wall).sum();
        eprintln!(
            "synth: pass {}: seeded {seeded_s:.3}s ({seeded_met} met), blind {blind_s:.3}s ({blind_met} met)",
            pass_walls.len()
        );
        if t0.elapsed().as_secs_f64() + median(&pass_walls) > seconds {
            break;
        }
    }
    if let Err(e) = checks::self_test(None, None) {
        run.problems.push(e);
    }
    // Each synthesis's median over the passes, so one slow stretch of the
    // run does not move the throughput or the median.
    let typical: Vec<f64> = by_slot.iter().map(|w| median(w)).collect();
    let ms: Vec<f64> = by_slot.iter().flatten().map(|w| w * 1e3).collect();
    run.finish(
        setup_s,
        typical.len() as f64 / typical.iter().sum::<f64>(),
        median(&typical) * 1e3,
        tail(&ms),
    );
    run
}
