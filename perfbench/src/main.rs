//! `perfbench`: one benchmark for the APE request path and paper path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire|sweep|synth --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics with tracing
//! off. `--trace 1` runs the layer ladder and reports per-layer metrics.
//! The last line of standard output is the JSON result; everything else
//! (progress, digests, the trace path) goes to standard error.

mod checks;
mod e2e;
mod inputs;
mod ladder;
mod trace;
mod util;
mod wire;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "wire" | "sweep" | "synth") {
        return Err(format!("unknown workload `{workload}` (want wire|sweep|synth)"));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        ladder::run(&args.workload, args.seed, args.seconds)
    } else {
        match args.workload.as_str() {
            "wire" => e2e::run_wire(args.seed, args.seconds),
            "sweep" => e2e::run_sweep(args.seed, args.seconds),
            _ => e2e::run_synth(args.seed, args.seconds),
        }
    };
    for p in &run.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "{}",
        util::result_line(run.problems.is_empty(), &run.tally, &run.metrics)
    );
    ExitCode::SUCCESS
}
