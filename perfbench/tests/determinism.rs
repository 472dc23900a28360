//! Determinism self-test: two traced runs at one seed report identical
//! exact counts, and the readings digest is the same with tracing on
//! and off.
//!
//! Runs the release binary three times on the cheapest workload; run
//! with `cargo test --release`. Debug builds skip it (set-up alone
//! takes minutes there).

use scnn_core::json::{self, Value};
use std::process::Command;

struct Run {
    digest: String,
    result: Value,
}

fn run(trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_scnn-perfbench"))
        .args(["--workload", "uarch-zoo", "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let digest = stdout
        .split_whitespace()
        .skip_while(|w| *w != "digest")
        .nth(1)
        .expect("report prints a digest")
        .to_owned();
    let last = stdout.lines().last().expect("result line");
    let result = json::parse(last).expect("result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{stdout}"
    );
    Run { digest, result }
}

fn exact(name: &str) -> bool {
    name.starts_with("uarch.") && !name.ends_with("_us") && !name.ends_with("_per_event")
        || name == "nn.events_per_meas"
        || name.starts_with("countermeasure.")
            && (name.ends_with(".event_ratio") || name.ends_with(".cycle_ratio"))
}

fn exact_counts(run: &Run) -> Vec<(String, f64)> {
    let Some(Value::Object(metrics)) = run.result.get("metrics") else {
        panic!("metrics object");
    };
    metrics
        .iter()
        .filter(|(name, _)| exact(name))
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).expect("value");
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn traced_counts_repeat_and_tracing_leaves_readings_alone() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: run with --release");
        return;
    }
    let first = run(true);
    let second = run(true);
    let untraced = run(false);

    let counts = exact_counts(&first);
    assert_eq!(counts.len(), 9 + 1 + 10, "every exact count is reported");
    assert_eq!(counts, exact_counts(&second));
    assert_eq!(first.digest, second.digest);
    assert_eq!(first.digest, untraced.digest);
}
