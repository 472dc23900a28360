//! Cross-crate consistency: the instrumented execution path must compute
//! exactly the reference numbers while driving the full simulator, and
//! the counter model must keep its internal identities.

use scnn::data::cifar_synth::{self, CifarSynthConfig};
use scnn::data::mnist_synth::{generate, MnistSynthConfig};
use scnn::hpc::{CounterGroup, HpcEvent, Pmu, SimPmuConfig, SimulatedPmu};
use scnn::nn::models;
use scnn::uarch::{CoreConfig, CoreSim, NoiseConfig, Probe};

fn dataset() -> scnn::data::Dataset {
    generate(
        &MnistSynthConfig {
            per_class: 3,
            side: 12,
            ..MnistSynthConfig::default()
        },
        77,
    )
    .unwrap()
}

#[test]
fn traced_inference_equals_reference_through_core_sim() {
    // The tiny-scale model, then the shipped case-study models: the
    // traced kernels produce the numbers on their own code paths (conv's
    // scatter shares no code with im2col; dense runs the numeric GEMM on
    // one row), so each is pinned here against the numeric path on the
    // real shapes.
    let mnist = generate(
        &MnistSynthConfig {
            per_class: 1,
            ..MnistSynthConfig::default()
        },
        78,
    )
    .unwrap();
    let cifar = cifar_synth::generate(
        &CifarSynthConfig {
            per_class: 1,
            ..CifarSynthConfig::default()
        },
        79,
    )
    .unwrap();
    // (model, images, how many of them: the case-study models cost about
    // a million simulated events per inference).
    let cases = [
        ("small_cnn", models::small_cnn(1, 12, 10, 5), dataset(), 30),
        ("mnist_cnn", models::mnist_cnn(6), mnist, 4),
        ("cifar_cnn", models::cifar_cnn(7), cifar, 4),
        ("mnist_mlp", models::mnist_mlp(1, 12, 8), dataset(), 30),
    ];
    let mut core = CoreSim::new(CoreConfig::tiny()).unwrap();
    for (name, mut net, data, count) in cases {
        for (image, _) in data.iter().take(count) {
            let reference = {
                // The reference path needs &mut for cache bookkeeping.
                net.infer(image).unwrap()
            };
            let traced = net.infer_traced(image, &mut core).unwrap();
            assert_eq!(
                traced, reference,
                "{name}: simulation must not perturb semantics"
            );
        }
    }
    let snap = core.snapshot();
    assert!(snap.instructions > 0);
    assert_eq!(
        snap.instructions,
        snap.loads + snap.stores + snap.branches + snap_alu(&snap),
        "instruction identity"
    );
}

fn snap_alu(snap: &scnn::uarch::CounterSnapshot) -> u64 {
    snap.instructions - snap.loads - snap.stores - snap.branches
}

#[test]
fn counter_identities_hold_under_measurement() {
    let mut pmu = SimulatedPmu::new(
        SimPmuConfig {
            core: CoreConfig::tiny(),
            noise: NoiseConfig::quiet(),
            ..SimPmuConfig::default()
        },
        9,
    )
    .unwrap();
    let events = vec![
        HpcEvent::Instructions,
        HpcEvent::Cycles,
        HpcEvent::RefCycles,
        HpcEvent::BusCycles,
        HpcEvent::CacheReferences,
        HpcEvent::CacheMisses,
        HpcEvent::Branches,
        HpcEvent::BranchMisses,
    ];
    let group = CounterGroup::new(events, 8).unwrap();
    let net = models::small_cnn(1, 12, 10, 5);
    let ds = dataset();
    let (image, _) = ds.get(0).unwrap();
    let m = pmu
        .measure(&group, &mut |probe: &mut dyn Probe| {
            let _ = net.classify_traced(image, probe);
        })
        .unwrap();

    let v = |e| m.value(e).unwrap();
    // The orderings the paper's Figure 2(b) exhibits.
    assert!(v(HpcEvent::Instructions) > v(HpcEvent::Branches));
    assert!(v(HpcEvent::Cycles) > v(HpcEvent::RefCycles));
    assert!(v(HpcEvent::RefCycles) > v(HpcEvent::BusCycles));
    assert!(v(HpcEvent::CacheReferences) >= v(HpcEvent::CacheMisses));
    assert!(v(HpcEvent::Branches) > v(HpcEvent::BranchMisses));
}

#[test]
fn countermeasure_switch_keeps_model_semantics_under_trace() {
    let mut net = models::small_cnn(1, 12, 10, 5);
    let ds = dataset();
    let (image, _) = ds.get(4).unwrap();
    let before = net.infer(image).unwrap();
    net.set_constant_time(true);
    let mut core = CoreSim::new(CoreConfig::tiny()).unwrap();
    let after = net.infer_traced(image, &mut core).unwrap();
    assert_eq!(before, after);
}

#[test]
fn full_fig2b_group_fits_without_multiplexing() {
    let group = CounterGroup::new(HpcEvent::FIG2B.to_vec(), 8).unwrap();
    assert!(!group.is_multiplexed());
    let mut pmu = SimulatedPmu::new(SimPmuConfig::default(), 3).unwrap();
    let m = pmu
        .measure(&group, &mut |p: &mut dyn Probe| p.alu(100))
        .unwrap();
    assert!(m.readings.iter().all(|r| !r.was_multiplexed()));
}

#[test]
fn serialized_model_reproduces_observations() {
    use scnn::core::collect::{collect, CollectionConfig};
    use scnn::hpc::{SimPmuConfig, SimulatedPmu};
    use scnn::nn::Network;

    let ds = dataset().select_classes(&[0, 1]);
    let mut net = models::small_cnn(1, 12, 10, 5);
    let config = CollectionConfig {
        samples_per_category: 4,
        ..CollectionConfig::default()
    };
    let pmu_config = SimPmuConfig {
        core: CoreConfig::tiny(),
        noise: NoiseConfig::quiet(),
        ..SimPmuConfig::default()
    };

    let mut pmu = SimulatedPmu::new(pmu_config, 3).unwrap();
    let original = collect(&mut net, &ds, &mut pmu, &config).unwrap();

    // Round-trip the trained model through the binary format; the leak
    // profile must be identical.
    let mut restored = Network::from_bytes(&net.to_bytes()).unwrap();
    let mut pmu = SimulatedPmu::new(pmu_config, 3).unwrap();
    let replayed = collect(&mut restored, &ds, &mut pmu, &config).unwrap();
    assert_eq!(original, replayed);
}

#[test]
fn warm_attach_hides_footprint_but_not_work() {
    use scnn::core::collect::{collect, CollectionConfig};
    use scnn::hpc::{SimPmuConfig, SimulatedPmu, WarmupPolicy};
    use scnn::stats::Summary;

    let ds = dataset().select_classes(&[0, 1]);
    let mut net = models::small_cnn(1, 12, 10, 5);
    let config = CollectionConfig {
        events: vec![HpcEvent::CacheMisses, HpcEvent::Instructions],
        samples_per_category: 6,
        ..CollectionConfig::default()
    };
    let run = |net: &mut scnn::nn::Network, warmup| {
        let mut pmu = SimulatedPmu::new(
            SimPmuConfig {
                core: CoreConfig::tiny(),
                noise: NoiseConfig::quiet(),
                warmup,
                ..SimPmuConfig::default()
            },
            3,
        )
        .unwrap();
        collect(net, &ds, &mut pmu, &config).unwrap()
    };
    let cold = run(&mut net, WarmupPolicy::ColdStart);
    let warm = run(&mut net, WarmupPolicy::Warm);

    let mean = |obs: &[scnn::core::CategoryObservations], event| {
        obs.iter()
            .map(|o| {
                o.series(event)
                    .unwrap()
                    .iter()
                    .copied()
                    .collect::<Summary>()
                    .mean()
            })
            .sum::<f64>()
    };
    // Warm caches absorb most cold misses…
    assert!(
        mean(&warm, HpcEvent::CacheMisses) < mean(&cold, HpcEvent::CacheMisses) / 2.0,
        "warm {} vs cold {}",
        mean(&warm, HpcEvent::CacheMisses),
        mean(&cold, HpcEvent::CacheMisses)
    );
    // …but the retired work is identical either way.
    assert_eq!(
        mean(&warm, HpcEvent::Instructions),
        mean(&cold, HpcEvent::Instructions)
    );
}
