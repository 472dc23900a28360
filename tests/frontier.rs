//! Integration: the countermeasure leakage-vs-overhead frontier,
//! checked through the public facade.
//!
//! The contracts under test (DESIGN.md §16):
//!
//! 1. **Full panel** — the campaign reports every fixed arm plus the
//!    calibrated-noise arm, baseline first, each with a leakage scalar
//!    in [0, 1] and a positive overhead normalized to 1 on the baseline.
//! 2. **The alarm separates arms** — the baseline trips the evaluator
//!    while at least two protected arms stay quiet.
//! 3. **Pareto discipline** — the marked set is non-empty, never
//!    contains the baseline, and contains no dominated member.
//! 4. **Deterministic fan-out** — the outcome (struct, JSON, rendered
//!    table) is byte-identical on one worker and four.
//! 5. **Resume from cache** — a warm campaign against the same cache
//!    directory reproduces the cold outcome, modulo cache-hit markers.
//! 6. **Calibrate once** — the calibrated-noise arm reuses the last
//!    calibration probe's experiment instead of collecting again.
//!
//! The telemetry recorder is process-global, so every test holds
//! [`RUN_LOCK`]: no campaign may run inside another test's recording.

use scnn::cache::ArtifactCache;
use scnn::core::frontier::{self, run_frontier, FrontierOptions, FrontierOutcome};
use scnn::core::json::{parse, ToJson};
use scnn::core::pipeline::{CacheUsage, DatasetKind, ExperimentConfig};
use scnn::obs::Recorder;
use scnn::par::Threads;
use std::sync::{Arc, Mutex, MutexGuard};

static RUN_LOCK: Mutex<()> = Mutex::new(());

fn run_lock() -> MutexGuard<'static, ()> {
    RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(DatasetKind::Mnist)
        .samples(8)
        .epochs(1);
    cfg.train_per_class = 6;
    cfg.test_per_class = 3;
    cfg
}

/// A generous |t| target keeps the calibration loop to a couple of
/// doublings — the search logic still runs, the test stays fast.
fn options() -> FrontierOptions {
    FrontierOptions {
        target_t: 25.0,
        ..FrontierOptions::default()
    }
}

fn scratch(tag: &str) -> (std::path::PathBuf, ArtifactCache) {
    let dir = std::env::temp_dir().join(format!("scnn-it-frontier-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::open(&dir).unwrap();
    (dir, cache)
}

#[test]
fn frontier_reports_every_arm_and_is_thread_invariant() {
    let _guard = run_lock();
    let cfg = config();
    let opts = options();
    let one = run_frontier(&cfg, &opts, Threads::Count(1), None, None).unwrap();
    let four = run_frontier(&cfg, &opts, Threads::Count(4), None, None).unwrap();
    assert_eq!(one, four, "worker count must not affect the outcome");
    assert_eq!(
        one.to_json(),
        four.to_json(),
        "and the serialized outcome is byte-identical"
    );
    assert_eq!(
        one.render_table(),
        four.render_table(),
        "and so is the rendered table"
    );

    // Six arms or more, the ratios in range, the baseline at overhead 1
    // and alarming, two quiet arms and a sound Pareto set: the same rules
    // `lint frontier` applies to `repro frontier --out`.
    let json = parse(&one.to_json()).unwrap();
    if let Err(rule) = frontier::check_json(&json) {
        panic!("{rule}:\n{}", one.render_table());
    }
    assert_eq!(one.rows[0].arm, "baseline");
}

#[test]
fn warm_frontier_resumes_from_cache() {
    let _guard = run_lock();
    let (dir, cache) = scratch("warm");
    let cfg = config();
    let opts = options();

    let cold = run_frontier(&cfg, &opts, Threads::Count(2), Some(&cache), None).unwrap();
    assert!(
        cold.rows.iter().all(|r| !r.trace_cache_hit),
        "cold run traces every arm"
    );
    let warm = run_frontier(&cfg, &opts, Threads::Count(2), Some(&cache), None).unwrap();
    assert!(
        warm.rows.iter().all(|r| r.trace_cache_hit),
        "warm run restores every arm's trace corpus"
    );
    assert!(
        warm.rows.iter().all(|r| r.cache.model_hit),
        "warm run restores the shared victim model"
    );
    assert_eq!(
        strip_cache(&cold),
        strip_cache(&warm),
        "verdicts identical modulo cache-hit markers"
    );
    assert_eq!(
        cold.render_table(),
        warm.render_table(),
        "rendered tables byte-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn calibrated_arm_reuses_the_last_probe() {
    let _guard = run_lock();
    let recorder = Arc::new(Recorder::new());
    scnn::obs::install(recorder.clone());
    let outcome = run_frontier(&config(), &options(), Threads::Count(1), None, None);
    scnn::obs::uninstall();
    let outcome = outcome.unwrap();
    let snapshot = recorder.snapshot();
    let probes = snapshot.counter("frontier.calibration-runs").unwrap_or(0);
    let collections = snapshot.spans_named("pipeline.collect").count() as u64;
    assert!(probes >= 1, "calibration ran no probe");
    assert_eq!(
        collections,
        probes + 6,
        "one collection per calibration probe and per fixed arm; the calibrated-noise arm adds none"
    );
    assert_eq!(outcome.rows.last().unwrap().arm, "calibrated-noise");
    assert!(
        outcome.converged == (outcome.rows.last().unwrap().max_abs_t <= outcome.target_t),
        "converged must say whether the last probe reached the target"
    );
}

/// The verdict parts of an outcome, with cache markers zeroed — cold
/// and warm runs legitimately differ there and nowhere else.
fn strip_cache(outcome: &FrontierOutcome) -> FrontierOutcome {
    let mut out = outcome.clone();
    for row in &mut out.rows {
        row.trace_cache_hit = false;
        row.cache = CacheUsage::default();
    }
    out
}
