//! Integration: the observability layer's two contracts, checked through
//! the public facade.
//!
//! 1. **Golden shape** — the telemetry JSON a run produces has the
//!    stable, documented keys; spans nest (every phase span is a child
//!    of `pipeline.run`); counters are monotone across runs.
//! 2. **Observation-only** — the experiment's report is byte-identical
//!    with telemetry on and off, and with the recorder installed the
//!    output stays byte-identical between 1 and 4 worker threads.
//!
//! The recorder is process-global, so every test that installs one
//! holds [`INSTALL_LOCK`] for its whole body.

use scnn::core::json::{check_telemetry, parse, ToJson, Value};
use scnn::core::pipeline::{DatasetKind, Experiment, ExperimentConfig, ExperimentOutcome};
use scnn::obs::{Recorder, TelemetrySnapshot};
use scnn::par::Threads;
use std::sync::{Arc, Mutex};

static INSTALL_LOCK: Mutex<()> = Mutex::new(());

fn config(threads: Threads) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(DatasetKind::Mnist)
        .samples(6)
        .epochs(1)
        .threads(threads);
    cfg.train_per_class = 6;
    cfg.test_per_class = 3;
    cfg
}

/// Runs one experiment with a fresh recorder installed, returning the
/// outcome and the recorder's snapshot.
fn observed_run(threads: Threads) -> (ExperimentOutcome, TelemetrySnapshot) {
    let recorder = Arc::new(Recorder::new());
    scnn::obs::install(recorder.clone());
    let outcome = Experiment::new(config(threads)).run();
    scnn::obs::uninstall();
    (outcome.unwrap(), recorder.snapshot())
}

#[test]
fn telemetry_json_has_the_golden_shape() {
    let _guard = INSTALL_LOCK.lock().unwrap();
    let (_, snapshot) = observed_run(Threads::Count(2));
    let root = parse(&snapshot.to_json()).expect("telemetry JSON parses");
    // Version, span nesting, counter signs, histogram totals and series
    // shape: the same rules `lint telemetry` applies.
    if let Err(rule) = check_telemetry(&root) {
        panic!("{rule}");
    }

    // Top level: exactly the five documented sections.
    let Value::Object(members) = &root else {
        panic!("telemetry root is not an object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["version", "spans", "counters", "histograms", "series"],
        "stable top-level key set and order"
    );

    // Every span carries the full documented key set.
    let spans = root.get("spans").unwrap().as_array().unwrap();
    assert!(!spans.is_empty());
    for span in spans {
        let Value::Object(members) = span else {
            panic!("span is not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "id",
                "parent",
                "name",
                "index",
                "thread",
                "depth",
                "start_ns",
                "duration_ns"
            ],
            "stable span key set and order"
        );
    }

    // The phase spans nest under pipeline.run.
    let find = |name: &str| {
        spans
            .iter()
            .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("span {name:?} present"))
    };
    let run_id = find("pipeline.run").get("id").unwrap().as_f64().unwrap();
    for phase in [
        "pipeline.dataset",
        "pipeline.train",
        "pipeline.collect",
        "pipeline.evaluate",
    ] {
        assert_eq!(
            find(phase).get("parent").and_then(Value::as_f64),
            Some(run_id),
            "{phase} is a child of pipeline.run"
        );
    }
    assert!(
        find("train.epoch").get("index").unwrap().as_f64() == Some(0.0),
        "epoch spans carry their index"
    );

    // Counters and series the pipeline must have produced.
    let counters = root.get("counters").unwrap().as_array().unwrap();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|c| c.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("counter {name:?} present"))
    };
    assert_eq!(counter("collect.categories"), 4.0);
    assert_eq!(counter("collect.samples"), 4.0 * 6.0);
    assert!(counter("evaluate.ttests") > 0.0);
    assert!(counter("train.steps") > 0.0);
    let series = root.get("series").unwrap().as_array().unwrap();
    assert!(series
        .iter()
        .any(|s| s.get("name").and_then(Value::as_str) == Some("train.epoch_loss")));
}

#[test]
fn counters_are_monotone_while_installed() {
    let _guard = INSTALL_LOCK.lock().unwrap();
    let recorder = Arc::new(Recorder::new());
    scnn::obs::install(recorder.clone());
    Experiment::new(config(Threads::Count(1))).run().unwrap();
    let first = recorder.snapshot();
    Experiment::new(config(Threads::Count(1))).run().unwrap();
    let second = recorder.snapshot();
    scnn::obs::uninstall();

    for counter in &first.counters {
        let later = second
            .counters
            .iter()
            .find(|c| c.name == counter.name)
            .unwrap_or_else(|| panic!("counter {} persists", counter.name));
        assert!(
            later.value >= counter.value,
            "counter {} went backwards: {} -> {}",
            counter.name,
            counter.value,
            later.value
        );
    }
}

#[test]
fn report_is_byte_identical_with_telemetry_on_and_off() {
    let _guard = INSTALL_LOCK.lock().unwrap();
    let bare = Experiment::new(config(Threads::Count(2))).run().unwrap();
    let (observed, snapshot) = observed_run(Threads::Count(2));
    assert!(!snapshot.spans.is_empty(), "telemetry actually recorded");
    assert_eq!(bare.observations, observed.observations);
    assert_eq!(bare.test_accuracy, observed.test_accuracy);
    assert_eq!(
        bare.report.to_json(),
        observed.report.to_json(),
        "telemetry must be observation-only"
    );
}

#[test]
fn observed_report_is_byte_identical_across_thread_counts() {
    let _guard = INSTALL_LOCK.lock().unwrap();
    let (sequential, _) = observed_run(Threads::Count(1));
    let (parallel, _) = observed_run(Threads::Count(4));
    assert_eq!(sequential.observations, parallel.observations);
    assert_eq!(
        sequential.report.to_json(),
        parallel.report.to_json(),
        "determinism contract holds with the recorder installed"
    );
}
