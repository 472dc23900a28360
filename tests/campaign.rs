//! Integration: the campaign engine behind every multi-arm study,
//! checked through the public facade.
//!
//! The contracts under test (DESIGN.md § Campaigns):
//!
//! 1. **Model once** — an uncached sweep, extraction or frontier
//!    campaign records exactly one `pipeline.train` span, however many
//!    arms (and calibration probes) it runs.
//! 2. **Same answer** — an arm run on the campaign's shared model equals
//!    a standalone experiment that trains its own; an arm with a
//!    different model key trains its own.
//! 3. **Held model** — campaigns handed a model the caller already holds
//!    train nothing and give the same outcome.
//!
//! The recorder is process-global, so every test holds [`INSTALL_LOCK`]
//! for its whole body: a test that trains must not run inside another
//! test's recording.

use scnn::core::campaign::{obtain_model, Campaign};
use scnn::core::extract::run_extract;
use scnn::core::frontier::{run_frontier, FrontierOptions};
use scnn::core::json::ToJson;
use scnn::core::pipeline::{Architecture, DatasetKind, Experiment, ExperimentConfig};
use scnn::core::sweep::run_sweep;
use scnn::core::zoo;
use scnn::obs::Recorder;
use scnn::par::Threads;
use std::sync::{Arc, Mutex};

static INSTALL_LOCK: Mutex<()> = Mutex::new(());

fn config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(DatasetKind::Mnist)
        .samples(6)
        .epochs(1);
    cfg.train_per_class = 6;
    cfg.test_per_class = 3;
    cfg
}

/// Runs `f` under a fresh recorder and counts its `pipeline.train` spans.
fn training_spans(f: impl FnOnce()) -> usize {
    let _guard = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = Arc::new(Recorder::new());
    scnn::obs::install(recorder.clone());
    f();
    scnn::obs::uninstall();
    recorder
        .snapshot()
        .spans
        .iter()
        .filter(|s| s.name == "pipeline.train")
        .count()
}

#[test]
fn uncached_sweep_trains_once() {
    let presets = vec![
        zoo::preset("xeon-like").unwrap(),
        zoo::preset("embedded-like").unwrap(),
    ];
    let trained = training_spans(|| {
        run_sweep(&config(), &presets, Threads::Count(2), None, None).unwrap();
    });
    assert_eq!(trained, 1, "one model for every preset");
}

#[test]
fn uncached_extraction_trains_once() {
    let trained = training_spans(|| {
        run_extract(&config(), 0.75, 20_000, Threads::Count(2), None, None).unwrap();
    });
    assert_eq!(trained, 1, "one model for every arm");
}

#[test]
fn uncached_frontier_trains_once() {
    let opts = FrontierOptions {
        target_t: 25.0,
        ..FrontierOptions::default()
    };
    let trained = training_spans(|| {
        run_frontier(&config(), &opts, Threads::Count(2), None, None).unwrap();
    });
    assert_eq!(trained, 1, "one model for every arm and calibration probe");
}

#[test]
fn campaigns_on_a_held_model_train_nothing_more() {
    let presets = vec![zoo::preset("embedded-like").unwrap()];
    let opts = FrontierOptions {
        target_t: 25.0,
        ..FrontierOptions::default()
    };
    let mut held_sweep = None;
    let trained = training_spans(|| {
        let (model, _) = obtain_model(&config(), None).unwrap();
        let held = Some(&model);
        let sweep = run_sweep(&config(), &presets, Threads::Count(2), None, held).unwrap();
        run_extract(&config(), 0.75, 20_000, Threads::Count(2), None, held).unwrap();
        run_frontier(&config(), &opts, Threads::Count(2), None, held).unwrap();
        held_sweep = Some(sweep.to_json());
    });
    assert_eq!(trained, 1, "only the held model is trained");
    let mut alone_sweep = None;
    training_spans(|| {
        let sweep = run_sweep(&config(), &presets, Threads::Count(2), None, None).unwrap();
        alone_sweep = Some(sweep.to_json());
    });
    assert_eq!(held_sweep, alone_sweep);
}

#[test]
fn shared_model_arms_equal_standalone_runs() {
    // Trains, so it must not run inside another test's recording.
    let _guard = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base = config().threads(Threads::Count(1));
    let campaign = Campaign::new(&base, None, None).unwrap();
    let mlp = base.clone().architecture(Architecture::Mlp);
    for cfg in [base.clone().samples(8), mlp] {
        let arm = campaign.run(cfg.clone()).unwrap();
        let alone = Experiment::new(cfg).run().unwrap();
        assert_eq!(arm.observations, alone.observations);
        assert_eq!(arm.train_report, alone.train_report);
        assert_eq!(arm.test_accuracy, alone.test_accuracy);
        assert_eq!(arm.network.to_bytes(), alone.network.to_bytes());
        assert_eq!(arm.report.render_table(), alone.report.render_table());
    }
}
