//! Integration: the architecture-extraction adversary, checked through
//! the public facade.
//!
//! The contracts under test (DESIGN.md §15):
//!
//! 1. **Recovery floor** — on the unprotected default platform the
//!    extractor recovers the victim's depth exactly and its per-layer
//!    kinds with ≥ 90% precision at the default sample count.
//! 2. **Countermeasures degrade recovery** — at least two
//!    [`Countermeasure`] arms score strictly below the unprotected arm.
//! 3. **Deterministic fan-out** — the outcome (struct, JSON, rendered
//!    table) is byte-identical on one worker and four.
//! 4. **Resume from cache** — a warm campaign against the same cache
//!    directory enters no `pipeline.train`/`extract.collect` span and
//!    reproduces the cold outcome, modulo the cache-hit markers.
//!
//! The recorder is process-global, so the test that installs one holds
//! [`INSTALL_LOCK`] for its whole body.

use scnn::cache::ArtifactCache;
use scnn::core::extract::{self, run_extract, ExtractOutcome};
use scnn::core::json::{parse, ToJson};
use scnn::core::pipeline::{DatasetKind, ExperimentConfig};
use scnn::obs::Recorder;
use scnn::par::Threads;
use std::sync::{Arc, Mutex};

static INSTALL_LOCK: Mutex<()> = Mutex::new(());

fn config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(DatasetKind::Mnist)
        .samples(8)
        .epochs(1);
    cfg.train_per_class = 6;
    cfg.test_per_class = 3;
    cfg
}

fn scratch(tag: &str) -> (std::path::PathBuf, ArtifactCache) {
    let dir = std::env::temp_dir().join(format!("scnn-it-extract-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::open(&dir).unwrap();
    (dir, cache)
}

#[test]
fn extraction_pins_the_architecture_and_degrades_under_countermeasures() {
    let cfg = config();
    let one = run_extract(&cfg, 0.75, 20_000, Threads::Count(1), None, None).unwrap();
    let four = run_extract(&cfg, 0.75, 20_000, Threads::Count(4), None, None).unwrap();
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

    if let Err(rule) = extract::check_json(&parse(&one.to_json()).unwrap()) {
        panic!("{rule}:\n{}", one.render_table());
    }

    let unprotected = &one.rows[0];
    assert_eq!(unprotected.arm, "unprotected");
    assert_eq!(
        unprotected.score.depth_recovered,
        one.truth.len(),
        "recovered: {}",
        unprotected.hypothesis.render()
    );
    assert!(
        unprotected.score.kind_precision >= 0.9,
        "unprotected kind precision {} below the 0.9 floor; recovered: {}",
        unprotected.score.kind_precision,
        unprotected.hypothesis.render()
    );
    assert!(
        unprotected.score.dim_accuracy >= 0.9,
        "unprotected dim accuracy {} below the 0.9 floor",
        unprotected.score.dim_accuracy
    );

    let degraded = one
        .rows
        .iter()
        .skip(1)
        .filter(|r| r.score.overall < unprotected.score.overall)
        .count();
    assert!(
        degraded >= 2,
        "at least two countermeasure arms must degrade recovery: {}",
        one.render_table()
    );

    // The sample-count curve (its sizes strictly increase, checked
    // above) is monotone in coverage: the full-corpus point can only
    // improve on (or match) the single-trace point.
    assert!(one.curve.len() >= 2, "curve needs at least two points");
    let first = one.curve.first().unwrap();
    let last = one.curve.last().unwrap();
    assert_eq!(first.samples, 1);
    assert!(last.overall >= first.overall - 1e-12);
}

#[test]
fn warm_extraction_resumes_from_cache_without_retracing() {
    let _guard = INSTALL_LOCK.lock().unwrap();
    let (dir, cache) = scratch("warm");
    let cfg = config();

    let cold = run_extract(&cfg, 0.75, 20_000, Threads::Count(2), Some(&cache), None).unwrap();
    assert!(
        cold.rows.iter().all(|r| !r.trace_cache_hit),
        "cold run measures every arm"
    );

    let recorder = Arc::new(Recorder::new());
    scnn::obs::install(recorder.clone());
    let warm = run_extract(&cfg, 0.75, 20_000, Threads::Count(2), Some(&cache), None).unwrap();
    scnn::obs::uninstall();
    let snapshot = recorder.snapshot();

    assert!(
        warm.rows.iter().all(|r| r.trace_cache_hit),
        "warm run restores every arm's trace corpus"
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
    let names: Vec<&str> = snapshot.spans.iter().map(|s| s.name).collect();
    assert!(
        !names.contains(&"pipeline.train"),
        "warm campaign must not retrain, got spans {names:?}"
    );
    assert!(
        !names.contains(&"extract.collect"),
        "warm campaign must not re-trace, got spans {names:?}"
    );
    assert!(
        names.contains(&"extract.arm"),
        "per-arm spans are always present"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The verdict parts of an outcome, with cache-hit markers zeroed —
/// cold and warm runs legitimately differ there and nowhere else.
fn strip_cache(outcome: &ExtractOutcome) -> ExtractOutcome {
    let mut out = outcome.clone();
    for row in &mut out.rows {
        row.trace_cache_hit = false;
    }
    out
}
