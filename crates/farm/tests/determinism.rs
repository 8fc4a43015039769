// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Worker-count independence: the same sweep plan must produce
//! byte-identical JSONL whether one worker or eight execute it. This holds
//! because every job runs as a pure function of `(technology, request)` —
//! the estimation graph's bit-exact memo keys make warm workers answer
//! exactly as cold ones would — and the report collects results in grid
//! order. The records themselves must also equal a sequential reference
//! built without the farm.

use ape_core::basic::MirrorTopology;
use ape_core::opamp::{OpAmp, OpAmpSpec, OpAmpTopology};
use ape_farm::{Farm, FarmConfig, FarmError, SweepMetrics, SweepPlan, SweepRecord};
use ape_netlist::Technology;

fn small_plan() -> SweepPlan {
    SweepPlan {
        gains: vec![100.0, 400.0],
        ugfs_hz: vec![1e6, 5e6],
        loads_f: vec![5e-12, 20e-12],
        topologies: vec![
            OpAmpTopology::miller(MirrorTopology::Simple, false),
            OpAmpTopology::miller(MirrorTopology::Wilson, false),
        ],
        ibias_a: 10e-6,
        area_max_m2: 20_000e-12,
        zout_ohm: None,
    }
}

fn run_with(workers: usize) -> String {
    let farm = Farm::new(
        Technology::default_1p2um(),
        FarmConfig::with_workers(workers),
    );
    small_plan().run(&farm).to_jsonl()
}

#[test]
fn one_and_eight_workers_emit_identical_jsonl() {
    let serial = run_with(1);
    let parallel = run_with(8);
    assert_eq!(
        serial.lines().count(),
        small_plan().len(),
        "one JSONL line per grid point"
    );
    assert_eq!(serial, parallel, "sweep output depends on the worker count");
    // The sweep must actually produce designs, not a wall of errors.
    assert!(
        serial
            .lines()
            .filter(|l| l.contains("\"area_um2\""))
            .count()
            >= small_plan().len() / 2,
        "most grid points should size successfully:\n{serial}"
    );
    assert!(
        serial.contains("\"pareto\":true"),
        "a non-empty sweep has a non-empty Pareto front"
    );
}

#[test]
fn repeated_runs_are_reproducible() {
    assert_eq!(run_with(2), run_with(2));
}

/// The records a sweep of `plan` must produce, built without the farm: one
/// `OpAmp::design` per point in grid order on this thread, the same metric
/// reduction, and the Pareto front recomputed by brute force.
fn sequential_reference(plan: &SweepPlan) -> Vec<SweepRecord> {
    let tech = Technology::default_1p2um();
    let mut records: Vec<SweepRecord> = plan
        .points()
        .into_iter()
        .map(|p| {
            let spec = OpAmpSpec {
                gain: p.gain,
                ugf_hz: p.ugf_hz,
                area_max_m2: plan.area_max_m2,
                ibias: plan.ibias_a,
                zout_ohm: if p.topology.buffer {
                    plan.zout_ohm
                } else {
                    None
                },
                cl: p.cl_f,
            };
            let outcome = match OpAmp::design(&tech, p.topology, spec) {
                Ok(amp) => {
                    let gain = amp.perf.dc_gain.map(f64::abs).unwrap_or(0.0);
                    Ok(SweepMetrics {
                        area_um2: amp.perf.gate_area_m2 * 1e12,
                        power_mw: amp.perf.power_w * 1e3,
                        gain,
                        gain_err_frac: ((p.gain - gain) / p.gain).max(0.0),
                        ugf_hz: amp.perf.ugf_hz.unwrap_or(0.0),
                    })
                }
                Err(e) => Err(FarmError::from(e).to_string()),
            };
            SweepRecord {
                point: p,
                outcome,
                pareto: false,
            }
        })
        .collect();
    let objectives = |m: &SweepMetrics| [m.area_um2, m.power_mw, m.gain_err_frac];
    let front: Vec<bool> = records
        .iter()
        .map(|r| {
            let Ok(m) = &r.outcome else { return false };
            let a = objectives(m);
            !records
                .iter()
                .filter_map(|o| o.outcome.as_ref().ok())
                .any(|o| {
                    let b = objectives(o);
                    b.iter().zip(&a).all(|(x, y)| x <= y) && b.iter().zip(&a).any(|(x, y)| x < y)
                })
        })
        .collect();
    for (r, on_front) in records.iter_mut().zip(front) {
        r.pareto = on_front;
    }
    records
}

#[test]
fn records_match_a_sequential_reference_at_any_worker_count() {
    let plan = small_plan();
    let reference = sequential_reference(&plan);
    assert!(reference.iter().any(|r| r.pareto));
    let configs = [
        FarmConfig::with_workers(1),
        FarmConfig::with_workers(2),
        FarmConfig::with_workers(8),
        FarmConfig {
            shared_graph: true,
            ..FarmConfig::with_workers(2)
        },
    ];
    for config in configs {
        let label = format!("{config:?}");
        let farm = Farm::new(Technology::default_1p2um(), config);
        let report = plan.run(&farm);
        assert_eq!(
            report.records, reference,
            "sweep differs from the reference at {label}"
        );
    }
}
