//! The three workloads, their timed loop and their output checks.

use crate::cost::{median, robust_cost, OpCosts};
use crate::lanes::{fnv, Lane, LaneSite, FNV_OFFSET};
use crate::layers::{self, Pass};
use crate::reference::{Reference, SetupReference};
use crate::victim::{self, SetupTimes, Victim};
use scnn_core::collect::{category_seed, collect_selected};
use scnn_core::{
    artifact, extract, Adversary, CollectionConfig, Countermeasure, DatasetKind, Evaluator,
    EvaluatorConfig, ExperimentConfig, Extractor, LeakageReport, TraceCorpus,
};
use scnn_hpc::{CounterGroup, HpcEvent, SimPmuConfig};
use scnn_par::Threads;
use scnn_uarch::CounterSnapshot;
use std::time::Instant;

/// Set-ups per run: at least `SETUPS.0`, and more, up to `SETUPS.1`,
/// until `SETUP_WALL_S` of set-up time has passed. `setup_s` is their
/// median.
pub const SETUPS: (usize, usize) = (3, 7);
/// See [`SETUPS`].
const SETUP_WALL_S: f64 = 10.0;
/// Reference runs before and after each set-up.
const SETUP_REFERENCE_RUNS: usize = 15;

/// A workload: which victims run on which presets under which arms,
/// measured how.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Case studies, one victim each.
    pub datasets: Vec<DatasetKind>,
    /// Zoo presets measured on.
    pub presets: Vec<&'static str>,
    /// `(metric name, frontier arm name, countermeasure)`, baseline
    /// first.
    pub arms: Vec<Arm>,
    /// The `measure` counter group.
    pub events: Vec<HpcEvent>,
    /// Holm-corrected verdicts at this family-wise rate.
    pub holm_alpha: Option<f64>,
    /// Images of each monitored category per lane.
    pub per_category: usize,
    /// Also run a `measure_layers` lane per arm.
    pub layers: bool,
    /// What the baseline arm's readings must show.
    pub verdict: Verdict,
    /// Rounds of the baseline arm's lanes whose readings feed the
    /// verdict, the parity check and the digest. Lanes run untimed
    /// after the timed loop until they have this many; other arms'
    /// digests cover their first round.
    pub verdict_rounds: usize,
}

/// What a workload's verdict check requires of its baseline arm, on
/// every victim and preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The evaluator accepts the readings.
    Evaluates,
    /// `cache-misses` raises the alarm (Tables 1–2).
    CacheMissAlarm,
    /// The Holm-corrected alarm is raised, and the extraction adversary
    /// recovers the architecture from the layers lane.
    AlarmAndExtraction,
}

/// One countermeasure arm.
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    /// Short name used in metric names.
    pub key: &'static str,
    /// The countermeasure (`None` on the baseline).
    pub cm: Option<Countermeasure>,
}

/// The frontier's fixed arms at its default options (20 000 dummy
/// events, 3 decoys), baseline first. Calibrated noise is left out: it
/// repeats noise injection's path at a searched volume.
pub fn frontier_arms() -> Vec<Arm> {
    vec![
        Arm {
            key: "baseline",
            cm: None,
        },
        Arm {
            key: "ct",
            cm: Some(Countermeasure::ConstantTime),
        },
        Arm {
            key: "shuffle",
            cm: Some(Countermeasure::Shuffle),
        },
        Arm {
            key: "noise",
            cm: Some(Countermeasure::NoiseInjection {
                dummy_events: 20_000,
            }),
        },
        Arm {
            key: "decoy",
            cm: Some(Countermeasure::DecoyInference { decoys: 3 }),
        },
        Arm {
            key: "oblivious",
            cm: Some(Countermeasure::ObliviousShape),
        },
    ]
}

/// Workload names, in report order.
pub const NAMES: [&str; 3] = ["paper-tables", "uarch-zoo", "defended-frontier"];

/// The named workload.
pub fn spec(name: &str) -> Option<Spec> {
    let baseline = vec![frontier_arms()[0]];
    let spec = match name {
        "paper-tables" => Spec {
            name: "paper-tables",
            datasets: vec![DatasetKind::Mnist, DatasetKind::Cifar10],
            presets: vec!["xeon-like"],
            arms: baseline,
            events: CollectionConfig::default().events,
            holm_alpha: None,
            per_category: 2,
            layers: false,
            verdict: Verdict::CacheMissAlarm,
            verdict_rounds: 6,
        },
        "uarch-zoo" => Spec {
            name: "uarch-zoo",
            datasets: vec![DatasetKind::Mnist],
            presets: vec!["mobile-like", "embedded-like"],
            arms: baseline,
            events: HpcEvent::FIG2B.to_vec(),
            holm_alpha: None,
            per_category: 2,
            layers: false,
            verdict: Verdict::Evaluates,
            verdict_rounds: 4,
        },
        "defended-frontier" => Spec {
            name: "defended-frontier",
            datasets: vec![DatasetKind::Mnist],
            presets: vec!["xeon-like"],
            arms: frontier_arms(),
            events: HpcEvent::FIG2B.to_vec(),
            holm_alpha: Some(0.05),
            per_category: 2,
            layers: true,
            verdict: Verdict::AlarmAndExtraction,
            verdict_rounds: 8,
        },
        _ => return None,
    };
    Some(spec)
}

/// Held-out accuracy floors per case study, checked on every workload:
/// well above chance (0.1), below what the paper-scale victims reach.
pub const ACCURACY_FLOOR: [(DatasetKind, f64); 2] =
    [(DatasetKind::Mnist, 0.8), (DatasetKind::Cifar10, 0.5)];

/// Minimum extraction recovery of the unprotected arm.
pub const RECOVERY_FLOOR: f64 = 0.9;

/// A metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
pub struct Outcome {
    /// Ops measured in the timed loop.
    pub attempted: usize,
    /// Ops that failed (all of them when a run-level check failed).
    pub failed: usize,
    /// Run-level check failures, human-readable.
    pub problems: Vec<String>,
    /// Digest of the verdict rounds' readings.
    pub digest: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Per-class robust costs in ms and labels, for the report.
    pub classes: Vec<(String, f64)>,
    /// Further report lines.
    pub notes: Vec<String>,
    /// Ops per second by the summed raw op times of the untraced rounds,
    /// for comparison with the robust `meas_per_s`.
    pub wall_per_s: f64,
}

fn preset_pmu(name: &str) -> Result<SimPmuConfig, String> {
    let preset = scnn_core::zoo::preset(name).ok_or_else(|| format!("no preset {name}"))?;
    Ok(SimPmuConfig {
        core: preset.core,
        ..SimPmuConfig::default()
    })
}

fn evaluator(spec: &Spec) -> Evaluator {
    Evaluator::new(EvaluatorConfig {
        holm_alpha: spec.holm_alpha,
        threads: Threads::Count(1),
        ..EvaluatorConfig::default()
    })
}

/// Runs `spec` at `seed`, measuring for about `seconds`.
///
/// # Errors
///
/// Returns set-up and lane-construction failures as text; failures of
/// measured ops are counted in the outcome instead.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut problems = Vec::new();

    // Set-up, several times: every repetition must build the same
    // victims, and the median is the reported set-up time. Each set-up
    // is bracketed by runs of the set-up reference, and its phase times
    // are scaled by their medians.
    let mut walk = SetupReference::default();
    let mut setups = Vec::new();
    let mut setup_notes = Vec::new();
    let mut victims: Vec<Victim> = Vec::new();
    let mut setup_wall = 0.0;
    for rep in 0..SETUPS.1 {
        if rep >= SETUPS.0 && setup_wall >= SETUP_WALL_S {
            break;
        }
        let before = walk.median_time(SETUP_REFERENCE_RUNS);
        let mut times = SetupTimes::default();
        let built = spec
            .datasets
            .iter()
            .map(|&d| victim::build(d, seed, &mut times))
            .collect::<Result<Vec<_>, _>>()?;
        let after = walk.median_time(SETUP_REFERENCE_RUNS);
        setup_wall += times.total();
        setups.push(times.scaled(0.5 * (before + after)));
        setup_notes.push(format!(
            "{:.2} s at {:.3}/{:.3} ms",
            times.total(),
            1e3 * before,
            1e3 * after
        ));
        if rep > 0 {
            for (a, b) in victims.iter().zip(&built) {
                if a.net.to_bytes() != b.net.to_bytes() || a.accuracy != b.accuracy {
                    problems.push(format!("{} set-up is not deterministic", a.dataset));
                }
            }
        }
        victims = built;
    }
    for v in &victims {
        if let Some(&(_, floor)) = ACCURACY_FLOOR.iter().find(|(d, _)| *d == v.dataset) {
            if v.accuracy < floor {
                problems.push(format!(
                    "{} held-out accuracy {:.3} below floor {floor}",
                    v.dataset, v.accuracy
                ));
            }
        }
    }

    let pmus = spec
        .presets
        .iter()
        .map(|p| preset_pmu(p))
        .collect::<Result<Vec<_>, _>>()?;
    let group = CounterGroup::new(spec.events.clone(), CounterGroup::DEFAULT_HW_COUNTERS)
        .map_err(|e| e.to_string())?;

    // Lanes: per victim × preset × arm, one `measure` lane per category
    // and optionally one `measure_layers` lane.
    let mut lanes = Vec::new();
    let mut labels = Vec::new();
    for (vi, v) in victims.iter_mut().enumerate() {
        let monitored = v.monitored(spec.per_category);
        for (pi, pmu) in pmus.iter().enumerate() {
            for (ai, arm) in spec.arms.iter().enumerate() {
                let stem = format!("{}/{}/{}", v.dataset, spec.presets[pi], arm.key);
                for c in 0..victim::CATEGORIES.len() {
                    let images: Vec<_> = monitored.of_class(c).cloned().collect();
                    for k in 0..images.len() {
                        labels.push(format!("{stem}/measure/c{c}/{k}"));
                    }
                    let site = LaneSite {
                        victim: vi,
                        preset: pi,
                        arm: ai,
                        category: c,
                        first_class: labels.len() - images.len(),
                        digest_ops: rounds_of(spec, ai) * images.len(),
                        images,
                        net: &mut v.net,
                    };
                    lanes.push(Lane::measure(site, *pmu, arm.cm, group.clone(), v.seed)?);
                }
                if spec.layers {
                    let images: Vec<_> = monitored.of_class(0).take(1).cloned().collect();
                    labels.push(format!("{stem}/layers/c0/0"));
                    let mut cfg = ExperimentConfig::paper(v.dataset).seed(v.seed);
                    cfg.countermeasure = arm.cm;
                    let tag = artifact::cm_seed_tag(&cfg) as usize;
                    let site = LaneSite {
                        victim: vi,
                        preset: pi,
                        arm: ai,
                        category: 0,
                        first_class: labels.len() - 1,
                        digest_ops: rounds_of(spec, ai),
                        images,
                        net: &mut v.net,
                    };
                    lanes.push(Lane::layers(site, *pmu, arm.cm, v.seed, tag)?);
                }
            }
        }
    }

    // The timed loop: whole rounds (every lane, one cycle of images
    // each) until the time is spent. A reference run sits between every
    // two ops, and each op is scaled by the mean of the runs just before
    // and just after it. In a traced run, odd rounds also time the
    // workload closure.
    let mut reference = Reference::default();
    let mut plain = OpCosts::new(labels.len());
    let mut raw = OpCosts::new(labels.len());
    let mut traced = OpCosts::new(labels.len());
    let mut closure = [0.0f64; 2];
    let mut failed = 0usize;
    let start = Instant::now();
    let mut rounds = 0usize;
    let mut before = reference.time();
    loop {
        let round_start = Instant::now();
        let tracing = trace && rounds % 2 == 1;
        for lane in lanes.iter_mut() {
            for _ in 0..lane.cycle() {
                let op = lane.step(tracing);
                let after = reference.time();
                let scaled = Reference::scale(op.total, 0.5 * (before + after));
                before = after;
                failed += usize::from(!op.ok);
                if tracing {
                    traced.record(op.class, scaled);
                    closure[0] += op.inner;
                    closure[1] += op.total;
                } else {
                    plain.record(op.class, scaled);
                    raw.record(op.class, op.total);
                }
            }
        }
        rounds += 1;
        let round = round_start.elapsed().as_secs_f64();
        let min_rounds = if trace { 2 } else { 1 };
        if rounds >= min_rounds && start.elapsed().as_secs_f64() + 0.5 * round >= seconds {
            break;
        }
    }
    // Lanes that feed a verdict finish their verdict rounds untimed.
    let mut attempted = plain.ops() + traced.ops();
    for lane in lanes.iter_mut() {
        while lane.steps() < rounds_of(spec, lane.arm) * lane.cycle() {
            failed += usize::from(!lane.step(false).ok);
            attempted += 1;
        }
    }

    // Verdicts over the baseline arm's first `verdict_rounds` rounds,
    // per victim × preset.
    let mut evaluations = Vec::new();
    let mut digest = FNV_OFFSET;
    for lane in &lanes {
        digest = fnv(digest, lane.digest());
    }
    for (vi, v) in victims.iter().enumerate() {
        for pi in 0..pmus.len() {
            let observations: Vec<_> = lanes
                .iter()
                .filter(|l| l.victim == vi && l.preset == pi && l.arm == 0 && !l.is_layers())
                .map(|l| l.observations(spec.verdict_rounds * l.cycle()))
                .collect();
            match evaluator(spec).evaluate(&observations) {
                Ok(report) => {
                    check_verdict(spec, v, pi, &report, &mut problems);
                    evaluations.push((observations, report));
                }
                Err(e) => problems.push(format!("evaluation failed: {e}")),
            }
        }
    }
    if spec.verdict == Verdict::AlarmAndExtraction {
        check_extraction(spec, &victims, &lanes, &mut problems)?;
    }
    check_parity(spec, &victims, &pmus, &group, &lanes[0], &mut problems)?;

    let failed = if problems.is_empty() {
        failed
    } else {
        attempted
    };
    let classes = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.clone(), 1e3 * plain.cost(i)))
        .collect();

    let mut notes = vec![format!(
        "set-ups by wall clock, at reference before/after: {}",
        setup_notes.join(", ")
    )];
    if trace {
        notes.push(format!(
            "workload closure share of PMU call time (traced rounds): {:.1}%",
            100.0 * closure[0] / closure[1]
        ));
    }
    let setup_totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    let metrics = if trace {
        let ctx = TraceContext {
            spec,
            victims: &victims,
            pmus: &pmus,
            setups: &setups,
            plain: &plain,
            traced: &traced,
            group: &group,
            evaluations: &evaluations,
        };
        per_layer(&ctx)?
    } else {
        vec![
            metric("setup_s", median(&setup_totals), "s"),
            metric("meas_per_s", plain.rate(), "1/s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        problems,
        digest,
        metrics,
        classes,
        notes,
        wall_per_s: raw.wall_rate(),
    })
}

/// Rounds of readings lanes of arm `arm` keep for checks.
fn rounds_of(spec: &Spec, arm: usize) -> usize {
    if arm == 0 {
        spec.verdict_rounds
    } else {
        1
    }
}

fn check_verdict(
    spec: &Spec,
    v: &Victim,
    preset: usize,
    report: &LeakageReport,
    problems: &mut Vec<String>,
) {
    let at = format!("{}/{}/baseline", v.dataset, spec.presets[preset]);
    match spec.verdict {
        Verdict::Evaluates => {}
        Verdict::CacheMissAlarm => {
            let cm = report.event(HpcEvent::CacheMisses);
            if !cm.is_some_and(|e| e.leaks()) {
                problems.push(format!("{at}: cache-misses raises no alarm"));
            }
        }
        Verdict::AlarmAndExtraction => {
            let raised = report
                .per_event
                .iter()
                .any(|e| e.holm.as_ref().unwrap_or(&e.pairwise).leak_count() > 0);
            if !raised {
                problems.push(format!("{at}: the baseline alarm is not raised"));
            }
        }
    }
}

fn check_extraction(
    spec: &Spec,
    victims: &[Victim],
    lanes: &[Lane],
    problems: &mut Vec<String>,
) -> Result<(), String> {
    for lane in lanes.iter().filter(|l| l.is_layers() && l.arm == 0) {
        let v = &victims[lane.victim];
        let corpus = TraceCorpus {
            traces: lane.traces(spec.verdict_rounds),
        };
        let recovery = extraction_recovery(v, &corpus)?;
        if recovery < RECOVERY_FLOOR {
            problems.push(format!(
                "{}: baseline extraction recovery {recovery:.3} below {RECOVERY_FLOOR}",
                v.dataset
            ));
        }
    }
    Ok(())
}

/// Profiles the extractor on the first 60% of `corpus` (the frontier's
/// profile fraction) and scores the hypothesis against the victim.
fn extraction_recovery(v: &Victim, corpus: &TraceCorpus) -> Result<f64, String> {
    let n = corpus.len();
    let profile_n = ((n as f64 * 0.6).round() as usize).clamp(1, n.max(1));
    let mut extractor = Extractor::new();
    extractor
        .profile(&corpus.prefix(profile_n))
        .map_err(|e| e.to_string())?;
    let hypothesis = extractor.report().ok_or("extractor produced no report")?;
    let (image, _) = v.test.get(0).ok_or("empty held-out set")?;
    let truth = extract::ground_truth(&v.net, image.shape()).map_err(|e| e.to_string())?;
    Ok(extract::score(hypothesis, &truth).overall)
}

/// The first lane's verdict-round readings must equal what
/// `collect_selected` measures for its category on the same config.
fn check_parity(
    spec: &Spec,
    victims: &[Victim],
    pmus: &[SimPmuConfig],
    group: &CounterGroup,
    lane: &Lane,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let v = &victims[lane.victim];
    let cm = spec.arms[lane.arm].cm;
    let n = spec.verdict_rounds * lane.cycle();
    let config = CollectionConfig {
        events: group.events().to_vec(),
        samples_per_category: n,
        hw_counters: group.hw_counters(),
        threads: Threads::Count(1),
    };
    let monitored = v.monitored(spec.per_category);
    let pmu = pmus[lane.preset];
    let collected = collect_selected(
        |c| {
            crate::lanes::Classifier::new(
                &v.net,
                cm,
                category_seed(v.seed ^ crate::lanes::CM_BASE, c),
            )
        },
        &monitored,
        |c| scnn_hpc::SimulatedPmu::new(pmu, category_seed(v.seed ^ crate::lanes::PMU_BASE, c)),
        &config,
        &[lane.category],
        |_| {},
    )
    .map_err(|e| e.to_string())?;
    if collected.first() != Some(&lane.observations(n)) {
        problems.push("benchmark readings differ from collect_selected".into());
    }
    Ok(())
}

struct TraceContext<'a> {
    spec: &'a Spec,
    victims: &'a [Victim],
    pmus: &'a [SimPmuConfig],
    setups: &'a [SetupTimes],
    plain: &'a OpCosts,
    traced: &'a OpCosts,
    group: &'a CounterGroup,
    evaluations: &'a [(Vec<scnn_core::CategoryObservations>, LeakageReport)],
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Reads one simulated counter.
type Counter = fn(&CounterSnapshot) -> u64;

/// Seed of the per-layer passes' countermeasure streams.
const PASS_SEED: u64 = 0x7A55;

fn per_layer(ctx: &TraceContext<'_>) -> Result<Vec<Metric>, String> {
    let spec = ctx.spec;
    let mut reference = Reference::default();
    let mut out = Vec::new();

    let steps: usize = ctx.victims.iter().map(|v| v.train_steps).sum();
    let synth: Vec<f64> = ctx.setups.iter().map(|s| s.synth_s).collect();
    let train: Vec<f64> = ctx.setups.iter().map(|s| s.train_s).collect();
    out.push(metric("data.synth_s", median(&synth), "s"));
    out.push(metric("nn.train_s", median(&train), "s"));
    out.push(metric(
        "nn.train_us_per_step",
        1e6 * median(&train) / steps as f64,
        "us",
    ));

    // Passes on the first monitored image: one per victim × preset ×
    // arm of the workload, plus, on the first victim and preset, every
    // frontier arm the workload does not run. Repetitions interleave all
    // of them.
    let mut keys: Vec<(usize, usize, Arm, bool)> = Vec::new();
    for vi in 0..ctx.victims.len() {
        for pi in 0..ctx.pmus.len() {
            keys.extend(spec.arms.iter().map(|&arm| (vi, pi, arm, true)));
        }
    }
    for arm in frontier_arms() {
        if !spec.arms.iter().any(|a| a.key == arm.key) {
            keys.push((0, 0, arm, false));
        }
    }
    let images = ctx
        .victims
        .iter()
        .map(|v| v.monitored(1).get(0).map(|(im, _)| im.clone()))
        .collect::<Option<Vec<_>>>()
        .ok_or("empty monitored set")?;
    let mut states = keys
        .iter()
        .map(|&(vi, pi, arm, _)| {
            layers::Passes::new(
                &ctx.victims[vi].net,
                arm.cm,
                ctx.pmus[pi],
                &images[vi],
                ctx.group,
                PASS_SEED,
                arm.cm.is_none(),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Pass times are scaled by the median reference run among them.
    let mut refs = Vec::new();
    for _ in 0..layers::REPS {
        for state in &mut states {
            refs.push(reference.time());
            state.rep()?;
        }
    }
    let scale = Reference::scale(1.0, median(&refs));
    let passes: Vec<((usize, usize, Arm, bool), Pass)> = keys
        .into_iter()
        .zip(states.into_iter().map(layers::Passes::finish))
        .collect();
    let own: Vec<&Pass> = passes.iter().filter(|(k, _)| k.3).map(|(_, p)| p).collect();

    let n = own.len() as f64;
    let sum = |f: fn(&Pass) -> f64| own.iter().map(|p| f(p)).sum::<f64>();
    let events = sum(|p| p.events);
    let nn_secs = sum(|p| p.nn_secs);
    out.push(metric("nn.events_per_meas", events / n, "count"));
    out.push(metric(
        "nn.traced_ns_per_event",
        1e9 * scale * nn_secs / events,
        "ns",
    ));
    out.push(metric(
        "uarch.ns_per_event",
        1e9 * scale * (sum(|p| p.sim_secs) - nn_secs) / events,
        "ns",
    ));
    out.push(metric(
        "uarch.cold_start_us",
        1e6 * scale * sum(|p| p.cold_secs) / n,
        "us",
    ));
    let fields: [(&str, Counter); 9] = [
        ("l1d_accesses", |s| s.l1d_accesses),
        ("l1d_misses", |s| s.l1d_misses),
        ("l2_accesses", |s| s.l2_accesses),
        ("l2_misses", |s| s.l2_misses),
        ("llc_refs", |s| s.llc_references),
        ("llc_misses", |s| s.llc_misses),
        ("prefetches", |s| s.prefetches),
        ("branch_misses", |s| s.branch_misses),
        ("sim_cycles", |s| s.cycles),
    ];
    for (name, field) in fields {
        let total: f64 = own.iter().map(|p| p.per_inference(field)).sum();
        out.push(metric(format!("uarch.{name}"), total / n, "count"));
    }
    out.push(metric(
        "hpc.self_us_per_meas",
        1e6 * scale * sum(|p| p.hpc_secs) / n,
        "us",
    ));

    // Countermeasure arms on the first victim and preset, against the
    // baseline there.
    let on_first = |key: &str| {
        passes
            .iter()
            .find(|(k, _)| k.0 == 0 && k.1 == 0 && k.2.key == key)
            .map(|(_, p)| p)
            .ok_or_else(|| format!("no {key} pass"))
    };
    let base = on_first("baseline")?;
    for arm in frontier_arms().iter().skip(1) {
        let pass = on_first(arm.key)?;
        let key = arm.key;
        out.push(metric(
            format!("countermeasure.{key}.host_ratio"),
            pass.sim_secs / base.sim_secs,
            "ratio",
        ));
        out.push(metric(
            format!("countermeasure.{key}.event_ratio"),
            pass.events / base.events,
            "ratio",
        ));
        out.push(metric(
            format!("countermeasure.{key}.cycle_ratio"),
            pass.counts.cycles as f64 / base.counts.cycles as f64,
            "ratio",
        ));
    }

    // Evaluator and extractor: re-run on the verdict data, timed.
    let mut eval_secs = Vec::new();
    let mut ttests = 0usize;
    for (observations, report) in ctx.evaluations {
        let mut times = Vec::new();
        for _ in 0..layers::REPS {
            let start = Instant::now();
            let _ = std::hint::black_box(evaluator(spec).evaluate(observations));
            times.push(scale * start.elapsed().as_secs_f64());
        }
        eval_secs.push(robust_cost(&times));
        ttests += report
            .per_event
            .iter()
            .map(|e| e.pairwise.pairs.len())
            .sum::<usize>();
    }
    out.push(metric(
        "evaluator.ms",
        1e3 * eval_secs.iter().sum::<f64>(),
        "ms",
    ));
    out.push(metric("evaluator.ttests", ttests as f64, "count"));
    let mut extract_secs = Vec::new();
    for ((vi, ..), pass) in passes.iter().filter(|(_, p)| !p.corpus.is_empty()) {
        let corpus = TraceCorpus {
            traces: pass.corpus.clone(),
        };
        let mut times = Vec::new();
        for _ in 0..layers::REPS {
            let start = Instant::now();
            std::hint::black_box(extraction_recovery(&ctx.victims[*vi], &corpus)?);
            times.push(scale * start.elapsed().as_secs_f64());
        }
        extract_secs.push(robust_cost(&times));
    }
    out.push(metric(
        "extract.ms",
        1e3 * extract_secs.iter().sum::<f64>(),
        "ms",
    ));

    out.push(metric(
        "trace.overhead",
        ctx.traced.rate() / ctx.plain.rate(),
        "ratio",
    ));
    Ok(out)
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
