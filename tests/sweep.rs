//! Integration: the microarchitecture-zoo sweep, checked through the
//! public facade.
//!
//! The contracts under test (DESIGN.md §13):
//!
//! 1. **Platforms are actually different** — two presets produce
//!    different raw event counts for the same classification stream
//!    (otherwise the zoo would be decorative).
//! 2. **Deterministic fan-out** — the sweep's leak table is
//!    byte-identical whether the presets run on one worker or four,
//!    and row order always follows zoo order.
//! 3. **Resume from cache** — a warm sweep against the same cache
//!    directory enters no `pipeline.train`/`pipeline.collect` span and
//!    reproduces the cold table byte for byte, while every preset
//!    shares the single trained-model artifact.
//!
//! The recorder is process-global, so every test that installs one holds
//! [`INSTALL_LOCK`] for its whole body.

use scnn::cache::ArtifactCache;
use scnn::core::pipeline::{DatasetKind, ExperimentConfig};
use scnn::core::sweep::{run_sweep, SweepOutcome};
use scnn::core::zoo;
use scnn::core::ToJson;
use scnn::obs::Recorder;
use scnn::par::Threads;
use scnn::uarch::Probe;
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

fn scratch(tag: &str) -> (std::path::PathBuf, ArtifactCache) {
    let dir = std::env::temp_dir().join(format!("scnn-it-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::open(&dir).unwrap();
    (dir, cache)
}

/// Raw simulated event counts for one classification, per preset.
fn event_counts(preset: &scnn::uarch::UarchConfig) -> scnn::uarch::CounterSnapshot {
    let mut core = preset.build().unwrap();
    // A strided scan long enough to exercise caches, TLB and branches.
    for i in 0..50_000u64 {
        core.load(i * 48, 0x40);
        if i % 7 == 0 {
            core.branch(0x40 + i % 1024, i % 3 == 0);
        }
    }
    core.snapshot()
}

#[test]
fn presets_are_distinct_platforms() {
    let presets = zoo::zoo();
    assert!(presets.len() >= 3);
    let xeon = event_counts(&zoo::preset("xeon-like").unwrap());
    let embedded = event_counts(&zoo::preset("embedded-like").unwrap());
    let mobile = event_counts(&zoo::preset("mobile-like").unwrap());
    // Same instruction stream, different machines: the event counts that
    // feed the HPC model must differ.
    assert_ne!(
        xeon.llc_misses, embedded.llc_misses,
        "64B-line Xeon vs 32B-line embedded must miss differently"
    );
    assert_ne!(
        xeon.cycles, mobile.cycles,
        "different latency models must cost differently"
    );
    assert_ne!(
        xeon.branch_misses, embedded.branch_misses,
        "tournament vs bimodal predictors must mispredict differently"
    );
}

#[test]
fn sweep_is_byte_identical_across_worker_counts() {
    let cfg = config();
    let presets = zoo::zoo();
    let one = run_sweep(&cfg, &presets, Threads::Count(1), None, None).unwrap();
    let four = run_sweep(&cfg, &presets, Threads::Count(4), None, None).unwrap();
    assert_eq!(one, four, "worker count must not affect results");
    assert_eq!(
        one.to_json(),
        four.to_json(),
        "and the serialized table is byte-identical"
    );
    assert_eq!(
        one.render_table(),
        four.render_table(),
        "and so is the rendered table"
    );
    let names: Vec<&str> = one.rows.iter().map(|r| r.preset.as_str()).collect();
    let zoo_names: Vec<&str> = presets.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, zoo_names, "rows come back in zoo order");
    assert!(one.alarms() >= 1, "the leak must be visible somewhere");
}

#[test]
fn warm_sweep_resumes_from_cache_and_shares_the_model() {
    let _guard = INSTALL_LOCK.lock().unwrap();
    let (dir, cache) = scratch("warm");
    let cfg = config();
    // Two presets keep the test fast; distinctness is covered above.
    let presets = vec![
        zoo::preset("xeon-like").unwrap(),
        zoo::preset("embedded-like").unwrap(),
    ];

    let cold = run_sweep(&cfg, &presets, Threads::Count(2), Some(&cache), None).unwrap();
    // The campaign trains the one model before any preset runs, so every
    // row reads it as a hit.
    assert!(
        cold.rows.iter().all(|r| r.cache.model_hit),
        "every preset restores the one shared model artifact"
    );

    let recorder = Arc::new(Recorder::new());
    scnn::obs::install(recorder.clone());
    let warm = run_sweep(&cfg, &presets, Threads::Count(2), Some(&cache), None).unwrap();
    scnn::obs::uninstall();
    let snapshot = recorder.snapshot();

    assert_eq!(strip_cache(&cold), strip_cache(&warm), "verdicts identical");
    assert_eq!(
        cold.render_table(),
        warm.render_table(),
        "rendered tables byte-identical"
    );
    let names: Vec<&str> = snapshot.spans.iter().map(|s| s.name).collect();
    assert!(
        !names.contains(&"pipeline.train"),
        "warm sweep must not retrain, got spans {names:?}"
    );
    assert!(
        !names.contains(&"pipeline.collect"),
        "warm sweep must not re-collect"
    );
    assert!(
        names.contains(&"sweep.preset"),
        "per-preset spans are always present"
    );
    assert!(
        warm.rows
            .iter()
            .all(|r| r.cache.model_hit && r.cache.categories_collected == 0),
        "warm rows are fully cache-fed"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The verdict parts of a sweep outcome, with cache usage zeroed —
/// cold and warm runs legitimately differ there and nowhere else.
fn strip_cache(outcome: &SweepOutcome) -> SweepOutcome {
    let mut out = outcome.clone();
    for row in &mut out.rows {
        row.cache = Default::default();
    }
    out
}
