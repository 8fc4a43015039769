// Test/harness code: panicking on bad results is the assertion mechanism.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Sweep semantics: grid points run on the farm's execution path without
//! being submitted, so they honour the farm's cancellation root and job
//! timeout, count in its stats and latency histogram, and leave nothing in
//! its result cache.

use ape_core::basic::MirrorTopology;
use ape_core::opamp::{OpAmpSpec, OpAmpTopology};
use ape_farm::{Farm, FarmConfig, FarmError, Request, SweepPlan};
use ape_json::Value;
use ape_netlist::Technology;
use std::time::Duration;

fn plan() -> SweepPlan {
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

fn farm(config: FarmConfig) -> Farm {
    Farm::new(Technology::default_1p2um(), config)
}

fn assert_every_record_fails_with(plan: &SweepPlan, farm: &Farm, want: &FarmError) {
    let report = plan.run(farm);
    assert_eq!(report.records.len(), plan.len());
    for r in &report.records {
        assert_eq!(r.outcome, Err(want.to_string()), "point {}", r.point.index);
        assert!(!r.pareto);
    }
}

#[test]
fn cancel_all_before_run_cancels_every_point() {
    let farm = farm(FarmConfig::with_workers(2));
    farm.cancel_all();
    let plan = plan();
    assert_every_record_fails_with(&plan, &farm, &FarmError::Cancelled);
    assert_eq!(farm.stats().cancelled, plan.len() as u64);
}

#[test]
fn zero_job_timeout_expires_every_point() {
    let farm = farm(FarmConfig {
        job_timeout: Some(Duration::ZERO),
        ..FarmConfig::with_workers(2)
    });
    assert_every_record_fails_with(&plan(), &farm, &FarmError::Cancelled);
}

#[test]
fn a_shut_down_farm_runs_no_points() {
    let mut farm = farm(FarmConfig::with_workers(2));
    farm.shutdown();
    let plan = plan();
    assert_every_record_fails_with(&plan, &farm, &FarmError::ShuttingDown);
    assert_eq!(farm.stats().executed, 0);
}

#[test]
fn every_point_is_executed_and_timed_once() {
    let farm = farm(FarmConfig::with_workers(2));
    let plan = plan();
    let report = plan.run(&farm);
    assert!(report.successes().count() > 0);
    let stats = farm.stats();
    assert_eq!(stats.executed, plan.len() as u64);
    assert_eq!(farm.job_latency_ns().count, plan.len() as u64);
    // Sweep points are not submissions: nothing queued, nothing waited.
    assert_eq!(stats.submitted, 0);
    assert_eq!(farm.queue_wait_ns().count, 0);
}

#[test]
fn sweep_points_leave_no_result_cache_entries() {
    let farm = farm(FarmConfig::with_workers(2));
    let plan = plan();
    let report = plan.run(&farm);
    let p = report.successes().next().expect("a sized point").point;
    let resp = farm
        .submit(Request::OpAmpDesign {
            topology: p.topology,
            spec: OpAmpSpec {
                gain: p.gain,
                ugf_hz: p.ugf_hz,
                area_max_m2: plan.area_max_m2,
                ibias: plan.ibias_a,
                zout_ohm: None,
                cl: p.cl_f,
            },
        })
        .wait()
        .expect("the point sized in the sweep sizes again");
    assert!(resp.as_opamp().is_some());
    let stats = farm.stats();
    assert_eq!(stats.cache_hits, 0, "the sweep populated the result cache");
    assert_eq!(stats.deduped, 0);
    assert_eq!(stats.executed, plan.len() as u64 + 1);
}

#[test]
fn jsonl_parses_back_bit_exactly_through_ape_json() {
    let farm = farm(FarmConfig::with_workers(2));
    let mut report = plan().run(&farm);
    assert!(report.successes().count() > 1);
    let error = "quote \" newline \n ctrl \u{1} emoji \u{1f600}";
    report.records[1].outcome = Err(error.to_string());
    let text = report.to_jsonl();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), report.records.len());
    let bits = |doc: &Value, key: &str| doc.get(key).and_then(Value::as_f64).map(f64::to_bits);
    for (line, r) in lines.iter().zip(&report.records) {
        let doc = ape_json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(bits(&doc, "index"), Some((r.point.index as f64).to_bits()));
        assert_eq!(bits(&doc, "gain_spec"), Some(r.point.gain.to_bits()));
        assert_eq!(bits(&doc, "ugf_spec_hz"), Some(r.point.ugf_hz.to_bits()));
        assert_eq!(bits(&doc, "cl_f"), Some(r.point.cl_f.to_bits()));
        match &r.outcome {
            Ok(m) => {
                assert_eq!(bits(&doc, "area_um2"), Some(m.area_um2.to_bits()));
                assert_eq!(bits(&doc, "power_mw"), Some(m.power_mw.to_bits()));
                assert_eq!(bits(&doc, "gain"), Some(m.gain.to_bits()));
                assert_eq!(bits(&doc, "gain_err_frac"), Some(m.gain_err_frac.to_bits()));
                assert_eq!(bits(&doc, "ugf_hz"), Some(m.ugf_hz.to_bits()));
                assert_eq!(doc.get("pareto").and_then(Value::as_bool), Some(r.pareto));
            }
            Err(e) => assert_eq!(doc.get("error").and_then(Value::as_str), Some(e.as_str())),
        }
    }
}
