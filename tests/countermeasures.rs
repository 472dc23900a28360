//! Integration: countermeasures reduce what the evaluator and the
//! attacker can see.

use scnn::core::attack::AttackConfig;
use scnn::core::countermeasure::Countermeasure;
use scnn::core::pipeline::{DatasetKind, Experiment, ExperimentConfig};
use scnn::hpc::HpcEvent;
use scnn::uarch::{CoreConfig, NoiseConfig};

fn fast() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(DatasetKind::Mnist)
        .samples(10)
        .epochs(2);
    cfg.train_per_class = 8;
    cfg.test_per_class = 4;
    cfg.pmu.core = CoreConfig::tiny();
    cfg.pmu.noise = NoiseConfig::quiet();
    cfg
}

#[test]
fn constant_time_removes_cache_miss_leak() {
    let leaky = Experiment::new(fast()).run().unwrap();
    let protected = Experiment::new(fast().countermeasure(Countermeasure::ConstantTime))
        .run()
        .unwrap();

    let pairs = |outcome: &scnn::core::ExperimentOutcome, event| {
        outcome
            .report
            .event(event)
            .map(|e| e.pairwise.leak_count())
            .unwrap_or(0)
    };
    let leaky_cm = pairs(&leaky, HpcEvent::CacheMisses);
    let protected_cm = pairs(&protected, HpcEvent::CacheMisses);
    assert!(
        leaky_cm > 0,
        "baseline must leak for the test to mean anything"
    );
    assert_eq!(
        protected_cm, 0,
        "under a quiet system, constant-footprint kernels leave nothing to test"
    );
}

#[test]
fn constant_time_keeps_accuracy() {
    let leaky = Experiment::new(fast()).run().unwrap();
    let protected = Experiment::new(fast().countermeasure(Countermeasure::ConstantTime))
        .run()
        .unwrap();
    assert_eq!(
        leaky.test_accuracy, protected.test_accuracy,
        "the countermeasure changes the footprint, never the function"
    );
}

#[test]
fn constant_time_defeats_the_attack() {
    let cfg = fast().samples(12);
    let leaky = Experiment::new(cfg.clone()).run().unwrap();
    let protected = Experiment::new(cfg.countermeasure(Countermeasure::ConstantTime))
        .run()
        .unwrap();

    // Built fluently — same parameters as `AttackConfig::default()`,
    // but through the validated builder path the CLI uses.
    let attack = AttackConfig::default().profile_fraction(0.5).seed(0xA77AC4);
    let leaky_acc = leaky.mount_attack(&attack).unwrap().accuracy;
    let protected_acc = protected.mount_attack(&attack).unwrap().accuracy;
    assert!(
        protected_acc <= leaky_acc,
        "protection must not help the attacker: {protected_acc} vs {leaky_acc}"
    );
    assert!(
        protected_acc < 0.60,
        "category recovery should collapse towards chance: {protected_acc}"
    );
}

#[test]
fn shuffle_preserves_predictions() {
    let plain = Experiment::new(fast()).run().unwrap();
    let shuffled = Experiment::new(fast().countermeasure(Countermeasure::Shuffle))
        .run()
        .unwrap();
    assert_eq!(
        plain.test_accuracy, shuffled.test_accuracy,
        "shuffling permutes the traced access order, never the numbers"
    );
}

#[test]
fn oblivious_shape_equalises_footprints_across_categories() {
    let outcome = Experiment::new(fast().countermeasure(Countermeasure::ObliviousShape))
        .run()
        .unwrap();
    // Every layer window is padded to one shared ceiling, so under a
    // quiet system each category's per-event distribution collapses to
    // the same constant: nothing is left for any t-test to see.
    for ev in &outcome.report.per_event {
        assert_eq!(
            ev.pairwise.leak_count(),
            0,
            "event {:?} still distinguishes a pair under oblivious shapes",
            ev.event
        );
        let means: Vec<f64> = ev.summaries.iter().map(|s| s.mean()).collect();
        assert!(
            means.windows(2).all(|w| w[0] == w[1]),
            "event {:?} footprints differ across categories: {means:?}",
            ev.event
        );
    }
}

#[test]
fn noise_injection_inflates_variance() {
    let plain = Experiment::new(fast()).run().unwrap();
    let noisy = Experiment::new(fast().countermeasure(Countermeasure::NoiseInjection {
        dummy_events: 5_000,
    }))
    .run()
    .unwrap();

    let spread = |outcome: &scnn::core::ExperimentOutcome| {
        outcome
            .report
            .event(HpcEvent::CacheMisses)
            .unwrap()
            .summaries
            .iter()
            .map(|s| s.sample_std())
            .sum::<f64>()
    };
    assert!(
        spread(&noisy) > spread(&plain),
        "dummy work must disperse the distributions: {} vs {}",
        spread(&noisy),
        spread(&plain)
    );
}
