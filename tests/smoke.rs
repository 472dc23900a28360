//! CI smoke test: the paper's headline claim, exercised on every push.
//!
//! Runs the full tiny-scale pipeline (synthetic MNIST → CNN training →
//! instrumented inference → HPC collection → `Evaluator` t-tests) with
//! `ModelScale::Tiny` and asserts the evaluator raises an alarm whose
//! triggering events include `cache-misses` — the leak of Figure 1 and
//! Table 1. Kept deliberately small so the whole test finishes in a few
//! seconds even in debug builds.

use scnn::core::json::{parse, ToJson};
use scnn::core::pipeline::{DatasetKind, Experiment, ExperimentConfig, ModelScale};
use scnn::hpc::HpcEvent;
use scnn::uarch::CoreConfig;

#[test]
fn tiny_scale_pipeline_raises_cache_miss_alarm() {
    let mut cfg = ExperimentConfig::quick(DatasetKind::Mnist).samples(8);
    assert_eq!(cfg.scale, ModelScale::Tiny, "quick config is tiny-scale");
    cfg.train_per_class = 8;
    cfg.test_per_class = 4;
    cfg.pmu.core = CoreConfig::tiny();

    let outcome = Experiment::new(cfg).run().unwrap();

    let alarm = outcome.report.alarm();
    assert!(alarm.raised(), "tiny-scale run must leak");
    assert!(
        alarm.triggering_events().contains(&HpcEvent::CacheMisses),
        "cache-misses is the paper's headline leaking event, got {:?}",
        alarm.triggering_events()
    );

    // The report also serialises: the machine-readable artefact CI can
    // archive is well-formed (it parses, and names the event).
    let json = outcome.report.to_json();
    assert!(json.contains("\"cache-misses\""), "json:\n{json}");
    parse(&json).expect("well-formed JSON");
}
