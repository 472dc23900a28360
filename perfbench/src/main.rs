//! Benchmark of the traced evaluation path: set-up, HPC measurements
//! through the simulated PMU, verdicts and countermeasures.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-tables|uarch-zoo|defended-frontier> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Everything runs on one thread. The run prints a human-readable report
//! and, as its last line, one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

mod cost;
mod lanes;
mod layers;
mod reference;
mod victim;
mod workload;

use std::process::ExitCode;

const USAGE: &str =
    "usage: scnn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "unknown workload {}; one of {}\n{USAGE}",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let outcome = match workload::run(&spec, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {}  seed {}  trace {}  nproc {nproc}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        for (label, ms) in &outcome.classes {
            println!("  op {label:<44} {ms:>10.3} ms");
        }
    }
    for m in &outcome.metrics {
        println!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<36} {:>14.6} 1/s",
        "(wall-clock rate, for comparison)", outcome.wall_per_s
    );
    println!(
        "  failed {}/{} ({:.1}%)  digest {:016x}",
        outcome.failed,
        outcome.attempted,
        100.0 * outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.digest
    );
    for p in &outcome.problems {
        println!("  check failed: {p}");
    }

    if args.trace {
        print_shares(&outcome.metrics);
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("  check failed: a metric is not finite");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        finite && outcome.failed == 0 && outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Prints how one measurement's host time splits across the layers, from
/// the per-layer metrics.
fn print_shares(metrics: &[workload::Metric]) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let events = get("nn.events_per_meas");
    let parts = [
        ("nn", get("nn.traced_ns_per_event") * events / 1e3),
        ("uarch", get("uarch.ns_per_event") * events / 1e3),
        ("cold-start", get("uarch.cold_start_us")),
        ("hpc", get("hpc.self_us_per_meas")),
    ];
    let total: f64 = parts.iter().map(|p| p.1).sum();
    let shares: Vec<String> = parts
        .iter()
        .map(|(name, us)| format!("{name} {:.1}%", 100.0 * us / total))
        .collect();
    println!("  layer shares of one measurement: {}", shares.join(", "));
}
