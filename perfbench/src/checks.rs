//! Output checks, and the self-test that shows each check can fail.

use crate::inputs::Design;
use ape_core::opamp::OpAmp;
use ape_farm::{SweepMetrics, SweepPlan, SweepRecord, SweepReport};
use ape_netlist::Technology;
use ape_serve::client::ReplyError;
use ape_serve::json::{self, Value};

/// How one reply compares with the direct answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Mismatch,
    Refused,
    Error,
}

/// The render a correct daemon must send for `d`: `design_result` of a
/// direct `OpAmp::design` (`None` when the direct call fails).
pub fn expected_render(tech: &Technology, d: &Design) -> Option<String> {
    OpAmp::design(tech, d.0, d.1)
        .ok()
        .map(|amp| ape_serve::proto::design_result(&amp).render())
}

/// A `design` reply must render byte-identical to the direct answer.
pub fn check_reply(outcome: &Result<Value, ReplyError>, expected: &Option<String>) -> Verdict {
    match (outcome, expected) {
        (Ok(v), Some(e)) if v.render() == *e => Verdict::Ok,
        (Ok(_), _) => Verdict::Mismatch,
        (Err(e), _) if e.code == "overloaded" => Verdict::Refused,
        (Err(_), _) => Verdict::Error,
    }
}

/// FNV-1a over a report's JSON Lines.
pub fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The report `SweepPlan::run` should produce, rebuilt from direct
/// `OpAmp::design_many_on` results: the same metric reduction and the same
/// Pareto rule, computed here independently of the farm.
pub fn report_from_designs(plan: &SweepPlan, results: &[Result<OpAmp, String>]) -> SweepReport {
    let mut records: Vec<SweepRecord> = plan
        .points()
        .into_iter()
        .zip(results)
        .map(|(p, r)| SweepRecord {
            point: p,
            outcome: r.as_ref().map_err(Clone::clone).map(|amp| {
                let gain = amp.perf.dc_gain.map(f64::abs).unwrap_or(0.0);
                SweepMetrics {
                    area_um2: amp.perf.gate_area_m2 * 1e12,
                    power_mw: amp.perf.power_w * 1e3,
                    gain,
                    gain_err_frac: ((p.gain - gain) / p.gain).max(0.0),
                    ugf_hz: amp.perf.ugf_hz.unwrap_or(0.0),
                }
            }),
            pareto: false,
        })
        .collect();
    let oks: Vec<(usize, SweepMetrics)> = records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.outcome.as_ref().ok().map(|m| (i, *m)))
        .collect();
    let dominates = |a: &SweepMetrics, b: &SweepMetrics| {
        a.area_um2 <= b.area_um2
            && a.power_mw <= b.power_mw
            && a.gain_err_frac <= b.gain_err_frac
            && (a.area_um2 < b.area_um2
                || a.power_mw < b.power_mw
                || a.gain_err_frac < b.gain_err_frac)
    };
    for (i, m) in &oks {
        records[*i].pareto = !oks.iter().any(|(j, o)| j != i && dominates(o, m));
    }
    SweepReport { records }
}

/// Digest of a pass: the JSON Lines of its reports, in call order.
pub fn pass_digest(reports: &[SweepReport]) -> u64 {
    digest(&reports.iter().map(SweepReport::to_jsonl).collect::<String>())
}

/// What a sweep pass is checked for: every point sized, a non-empty
/// Pareto front in every report, and a digest equal to the reference.
pub fn check_sweep(reports: &[SweepReport], reference: u64) -> Result<u64, String> {
    let failed: usize = reports
        .iter()
        .map(|r| r.records.len() - r.successes().count())
        .sum();
    if failed > 0 {
        return Err(format!("{failed} sweep points failed"));
    }
    if reports.iter().any(|r| r.pareto_front().next().is_none()) {
        return Err("empty Pareto front".into());
    }
    let d = pass_digest(reports);
    if d != reference {
        return Err(format!("digest {d:#018x} != reference {reference:#018x}"));
    }
    Ok(d)
}

/// The paper-path claim: no APE-seeded audit fails outright, and seeding
/// never does worse than a blind start.
pub fn check_synth(seeded_met: usize, blind_met: usize, seeded_audit_errors: usize) -> Result<(), String> {
    if seeded_audit_errors > 0 {
        return Err(format!("{seeded_audit_errors} seeded audits failed"));
    }
    if seeded_met < blind_met {
        return Err(format!("seeded met {seeded_met} < blind met {blind_met}"));
    }
    Ok(())
}

/// The smallest change a float can take.
fn bump(x: f64) -> f64 {
    f64::from_bits(x.to_bits() ^ 1)
}

/// Feeds each check one corrupted input and confirms it fails, and the
/// matching clean input and confirms it passes. `render` is a real
/// expected reply and `reports` a real sweep pass from this run (either
/// may be absent on a workload that has none).
pub fn self_test(render: Option<&str>, reports: Option<&[SweepReport]>) -> Result<(), String> {
    if let Some(r) = render {
        let clean = json::parse(r).map_err(|e| format!("reply does not parse: {e}"))?;
        let expected = Some(r.to_string());
        if check_reply(&Ok(clean.clone()), &expected) != Verdict::Ok {
            return Err("reply check rejects a correct reply".into());
        }
        let mut bad = clean;
        if let Value::Obj(m) = &mut bad {
            if let Some(Value::Num(x)) = m.get_mut("itail") {
                *x = bump(*x);
            }
        }
        if check_reply(&Ok(bad), &expected) != Verdict::Mismatch {
            return Err("reply check accepts a corrupted reply".into());
        }
    }
    if let Some(reps) = reports {
        let reference = pass_digest(reps);
        check_sweep(reps, reference).map_err(|e| format!("sweep check rejects its own pass: {e}"))?;
        let mut bad = reps.to_vec();
        if let Some(Ok(m)) = bad
            .last_mut()
            .and_then(|r| r.records.last_mut())
            .map(|r| &mut r.outcome)
        {
            m.power_mw = bump(m.power_mw);
        }
        if check_sweep(&bad, reference).is_ok() {
            return Err("sweep check accepts a corrupted digest".into());
        }
    }
    if check_synth(9, 6, 0).is_err() || check_synth(5, 6, 0).is_ok() || check_synth(9, 6, 1).is_ok() {
        return Err("synth check misjudges its cases".into());
    }
    Ok(())
}
