//! Leakage-vs-overhead Pareto frontier over the countermeasure suite.
//!
//! The paper stops at the observation that constant-footprint execution
//! silences the alarm; the natural engineering question is *at what
//! cost, and compared to what?* This module runs every
//! [`Countermeasure`] arm (plus the unprotected baseline) through
//! **both** adversaries — the pairwise-t-test evaluator (input
//! recovery) and the architecture [`Extractor`](crate::extract) — and
//! prices each arm with simulated cycle counts, then reports the
//! Pareto-dominant set on the (leakage, overhead) plane.
//!
//! Axes:
//!
//! - **leakage** ∈ [0, 1] — the mean of the evaluator's
//!   distinguishable-cell ratio and the extraction adversary's overall
//!   recovery score. Both adversaries matter: shuffling scrambles the
//!   *address* stream but leaves event *counts* intact, so it defeats
//!   neither counter-based adversary here — the frontier makes that
//!   honest and visible instead of letting "we added a countermeasure"
//!   pass for "we are safe".
//! - **overhead** — mean simulated [`Cycles`](HpcEvent::Cycles) per
//!   traced inference, relative to the baseline arm.
//!
//! The calibrated-noise arm replaces the ablation's hard-coded
//! dummy-event budget with a measured one: its volume is doubled until
//! the evaluator's max |t| falls below a target (see
//! [`calibrate_noise`]), so the reported overhead is the *price of the
//! threshold*, not of a guess.
//!
//! Determinism mirrors the sweep: arms run on one [`Campaign`]'s model
//! with single-threaded interiors, and every random stream is seeded from
//! the countermeasure's canonical JSON ([`artifact::cm_seed_tag`]), so
//! output is byte-identical at every thread count and cold-vs-warm
//! cache state.

use crate::artifact;
use crate::campaign::{map_arms, profile_split, Campaign, TrainedModel};
use crate::collect::category_seed;
use crate::countermeasure::Countermeasure;
use crate::error::Error;
use crate::extract;
use crate::json::{flag, number, ratio, section, text, ObjectWriter, ToJson, Value};
use crate::pipeline::{CacheUsage, ExperimentConfig, ExperimentOutcome};
use scnn_cache::ArtifactCache;
use scnn_data::Dataset;
use scnn_hpc::{CounterGroup, HpcEvent, Pmu, SimulatedPmu};
use scnn_nn::Network;
use scnn_par::Threads;

/// Tunable knobs of the frontier campaign — the CLI's `--dummy-events`,
/// `--decoys` and `--target-t` flags land here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierOptions {
    /// Mean dummy events of the fixed-budget noise arm.
    pub dummy_events: u64,
    /// Decoy classifications per real inference on the decoy arm.
    pub decoys: u64,
    /// Max-|t| target the calibrated-noise arm is driven toward.
    pub target_t: f64,
    /// Fraction of each trace corpus used for extraction profiling.
    pub profile_fraction: f64,
}

impl Default for FrontierOptions {
    fn default() -> Self {
        FrontierOptions {
            dummy_events: 20_000,
            decoys: 3,
            // Just below the evaluator's |t| threshold: calibration stops
            // exactly when no pair is distinguishable any more.
            target_t: 1.5,
            profile_fraction: 0.6,
        }
    }
}

/// One arm of the frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRow {
    /// Arm name (`baseline`, `constant-time`, …).
    pub arm: String,
    /// The countermeasure active on this arm (`None` on the baseline).
    pub countermeasure: Option<Countermeasure>,
    /// Whether the evaluator raised the alarm.
    pub alarm: bool,
    /// Distinguishable `(event, category-pair)` cells.
    pub distinguishable_pairs: usize,
    /// Total cells tested.
    pub total_pairs: usize,
    /// Largest |t| across all events and pairs.
    pub max_abs_t: f64,
    /// The extraction adversary's overall recovery score ∈ [0, 1].
    pub extraction_overall: f64,
    /// Mean simulated cycles per traced inference.
    pub mean_cycles: f64,
    /// `mean_cycles` relative to the baseline arm (1.0 there).
    pub overhead: f64,
    /// Combined leakage scalar ∈ [0, 1]: mean of the cell ratio and the
    /// extraction score.
    pub leakage: f64,
    /// Member of the Pareto-dominant set (never the baseline).
    pub pareto: bool,
    /// Held-out accuracy of the victim model.
    pub test_accuracy: f64,
    /// What the artifact cache contributed to the evaluator run.
    pub cache: CacheUsage,
    /// The extraction trace corpus was restored from the cache.
    pub trace_cache_hit: bool,
}

impl ToJson for FrontierRow {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("arm", &self.arm)
            .field("countermeasure", &self.countermeasure)
            .field("alarm", &self.alarm)
            .field("distinguishable_pairs", &self.distinguishable_pairs)
            .field("total_pairs", &self.total_pairs)
            .field("max_abs_t", &self.max_abs_t)
            .field("extraction_overall", &self.extraction_overall)
            .field("mean_cycles", &self.mean_cycles)
            .field("overhead", &self.overhead)
            .field("leakage", &self.leakage)
            .field("pareto", &self.pareto)
            .field("test_accuracy", &self.test_accuracy)
            .field("trace_cache_hit", &self.trace_cache_hit);
        obj.finish();
    }
}

/// The frontier campaign's result.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierOutcome {
    /// One row per arm, baseline first, in fixed arm order.
    pub rows: Vec<FrontierRow>,
    /// The dummy-event volume of the calibrated-noise arm: where
    /// calibration converged, or the cap when it did not.
    pub calibrated_dummy_events: u64,
    /// The |t| target calibration drove toward.
    pub target_t: f64,
    /// Whether calibration reached `target_t` before the volume cap.
    pub converged: bool,
}

impl FrontierOutcome {
    /// Arm names of the Pareto-dominant set, in row order.
    pub fn pareto_arms(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| r.pareto)
            .map(|r| r.arm.as_str())
            .collect()
    }

    /// Renders the frontier table for stdout.
    ///
    /// Column layout is fixed (not derived from the data), so the same
    /// numbers always produce byte-identical output.
    pub fn render_table(&self) -> String {
        let name_w = self
            .rows
            .iter()
            .map(|r| r.arm.len())
            .max()
            .unwrap_or(3)
            .max("arm".len());
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_w$}  {:>5}  {:>7}  {:>9}  {:>7}  {:>7}  {:>8}  {:>6}\n",
            "arm", "alarm", "cells", "max |t|", "extract", "leakage", "overhead", "pareto"
        ));
        out.push_str(&format!(
            "{:<name_w$}  {:>5}  {:>7}  {:>9}  {:>7}  {:>7}  {:>8}  {:>6}\n",
            "-".repeat(name_w),
            "-----",
            "-------",
            "---------",
            "-------",
            "-------",
            "--------",
            "------"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<name_w$}  {:>5}  {:>3}/{:<3}  {:>9.2}  {:>7.2}  {:>7.2}  {:>7.2}x  {:>6}\n",
                row.arm,
                if row.alarm { "YES" } else { "no" },
                row.distinguishable_pairs,
                row.total_pairs,
                row.max_abs_t,
                row.extraction_overall,
                row.leakage,
                row.overhead,
                if row.pareto { "*" } else { "" },
            ));
        }
        out
    }
}

impl ToJson for FrontierOutcome {
    fn write_json(&self, out: &mut String) {
        let pareto: Vec<String> = self.pareto_arms().into_iter().map(String::from).collect();
        let mut obj = ObjectWriter::new(out);
        obj.field("rows", &self.rows)
            .field("pareto", &pareto)
            .field("calibrated_dummy_events", &self.calibrated_dummy_events)
            .field("target_t", &self.target_t)
            .field("converged", &self.converged);
        obj.finish();
    }
}

/// One row's checked facts.
struct CheckedArm<'a> {
    name: &'a str,
    alarm: bool,
    leakage: f64,
    overhead: f64,
    pareto: bool,
}

fn checked_arm(row: &Value) -> Result<CheckedArm<'_>, String> {
    let name = text(row, "arm").map_err(|e| format!("row {e}"))?;
    let inner = |e: String| format!("row {name:?}: {e}");
    ratio(row, "extraction_overall").map_err(inner)?;
    for key in ["mean_cycles", "overhead"] {
        let n = number(row, key).map_err(inner)?;
        if n <= 0.0 {
            return Err(inner(format!("{key:?} = {n} is not positive")));
        }
    }
    Ok(CheckedArm {
        name,
        alarm: flag(row, "alarm").map_err(inner)?,
        leakage: ratio(row, "leakage").map_err(inner)?,
        overhead: number(row, "overhead")?,
        pareto: flag(row, "pareto").map_err(inner)?,
    })
}

/// Checks a frontier document ([`FrontierOutcome`]'s JSON, as `repro
/// frontier --out` writes it): at least six arms, each with a name, an
/// alarm, leakage and extraction ratios in [0, 1] and positive cycles
/// and overhead; a `baseline` row with overhead exactly 1 that raises
/// the alarm; at least two protected arms that stay quiet; a non-empty
/// Pareto set, without the baseline, whose members all leak less than
/// the baseline and never dominate one another, listed by a `pareto`
/// name list of the same length; and the calibration fields. Returns a
/// summary, or the first rule the document breaks.
pub fn check_json(root: &Value) -> Result<String, String> {
    let rows = section(root, "rows")?;
    if rows.len() < 6 {
        return Err(format!("only {} arms, a full frontier has 6+", rows.len()));
    }
    let arms: Vec<CheckedArm> = rows.iter().map(checked_arm).collect::<Result<_, _>>()?;
    let baseline = arms.iter().find(|a| a.name == "baseline");
    let baseline = baseline.ok_or("no \"baseline\" row")?;
    if baseline.overhead != 1.0 {
        return Err(format!("baseline overhead is {}, not 1", baseline.overhead));
    }
    if !baseline.alarm {
        return Err("the baseline must raise the leakage alarm".into());
    }
    let quiet = arms.iter().filter(|a| a.name != "baseline" && !a.alarm);
    let quiet = quiet.count();
    if quiet < 2 {
        return Err(format!(
            "only {quiet} protected arms suppress the alarm, not 2+"
        ));
    }
    let pareto: Vec<&CheckedArm> = arms.iter().filter(|a| a.pareto).collect();
    if pareto.is_empty() {
        return Err("empty Pareto set".into());
    }
    for a in &pareto {
        if a.name == "baseline" {
            return Err("the baseline can never be on the frontier".into());
        }
        if a.leakage >= baseline.leakage {
            return Err(format!(
                "Pareto arm {:?} leaks {} >= baseline {}",
                a.name, a.leakage, baseline.leakage
            ));
        }
        let dominated_by = pareto.iter().find(|b| {
            b.name != a.name
                && b.leakage <= a.leakage
                && b.overhead <= a.overhead
                && (b.leakage < a.leakage || b.overhead < a.overhead)
        });
        if let Some(b) = dominated_by {
            return Err(format!(
                "Pareto arm {:?} is dominated by {:?}",
                a.name, b.name
            ));
        }
    }
    let names = section(root, "pareto")?.len();
    if names != pareto.len() {
        return Err(format!(
            "\"pareto\" lists {names} arms but {} rows are marked",
            pareto.len()
        ));
    }
    number(root, "calibrated_dummy_events")?;
    number(root, "target_t")?;
    flag(root, "converged")?;
    Ok(format!(
        "{} arms, {} on the frontier, {quiet} alarm-quiet",
        arms.len(),
        pareto.len()
    ))
}

/// The fixed arm list, baseline first. The calibrated-noise arm is
/// appended by [`run_frontier`] once its volume is known.
fn fixed_arms(opts: &FrontierOptions) -> Vec<(&'static str, Option<Countermeasure>)> {
    vec![
        ("baseline", None),
        ("constant-time", Some(Countermeasure::ConstantTime)),
        ("shuffle", Some(Countermeasure::Shuffle)),
        (
            "noise-injection",
            Some(Countermeasure::NoiseInjection {
                dummy_events: opts.dummy_events,
            }),
        ),
        (
            "decoy-inference",
            Some(Countermeasure::DecoyInference {
                decoys: opts.decoys,
            }),
        ),
        ("oblivious-shape", Some(Countermeasure::ObliviousShape)),
    ]
}

/// Calibration floor and ceiling for the dummy-event search.
const CALIBRATE_START: u64 = 2_000;
const CALIBRATE_CAP: u64 = 512_000;

/// Where [`calibrate_noise`] stopped.
pub struct Calibration {
    /// The last probe's volume: the first whose max |t| is at most the
    /// target, or `CALIBRATE_CAP`.
    pub dummy_events: u64,
    /// The last probe's max |t| reached `target_t`.
    pub converged: bool,
    /// The last probe's experiment. It is the calibrated-noise arm's
    /// evaluator run, so the arm reuses it instead of running it again.
    pub outcome: ExperimentOutcome,
}

/// Finds the dummy-event volume at which noise injection pushes the
/// evaluator's max |t| below `target_t`, by doubling from
/// `CALIBRATE_START`: each probe volume runs the full (cache-resumed)
/// evaluation of `base` under `CalibratedNoise` on the campaign's
/// shared model, so a warm rerun replays the whole search from
/// checkpoints. Stops at the converged volume, or at the cap when even
/// `CALIBRATE_CAP` still leaks.
///
/// # Errors
///
/// Propagates the first failing calibration experiment.
pub fn calibrate_noise(
    campaign: &Campaign<'_>,
    base: &ExperimentConfig,
    target_t: f64,
) -> Result<Calibration, Error> {
    let _span = scnn_obs::Span::enter("frontier.calibrate");
    let mut volume = CALIBRATE_START;
    loop {
        let mut cfg = base.clone();
        cfg.countermeasure = Some(Countermeasure::CalibratedNoise {
            target_t,
            dummy_events: volume,
        });
        let outcome = campaign.run(cfg)?;
        scnn_obs::counter_add("frontier.calibration-runs", 1);
        let converged = outcome.report.cell_stats().max_abs_t <= target_t;
        if converged || volume >= CALIBRATE_CAP {
            return Ok(Calibration {
                dummy_events: volume,
                converged,
                outcome,
            });
        }
        volume *= 2;
    }
}

/// Traced inferences averaged for the overhead axis.
const OVERHEAD_REPS: usize = 4;

/// Mean simulated cycles per traced inference under `cm`, over
/// [`OVERHEAD_REPS`] test images. Seeded from the countermeasure's
/// canonical JSON, like every other per-arm stream.
fn mean_cycles(
    base: &ExperimentConfig,
    net: &Network,
    test_set: &Dataset,
    cm: Option<Countermeasure>,
) -> Result<f64, Error> {
    let mut cfg = base.clone();
    cfg.countermeasure = cm;
    let tag = artifact::cm_seed_tag(&cfg) as usize;
    let mut pmu = SimulatedPmu::new(base.pmu, category_seed(base.seed ^ 0xF507, tag))?;
    let group = CounterGroup::new(vec![HpcEvent::Cycles], 1)?;
    let mut classifier = extract::traced_victim(net, cm, category_seed(base.seed ^ 0xF508, tag));
    let mut total = 0u64;
    for rep in 0..OVERHEAD_REPS {
        let (image, _) = test_set
            .get(rep % test_set.len())
            .ok_or_else(|| Error::msg("overhead measurement needs a non-empty test set"))?;
        let mut nn_err: Option<scnn_nn::NnError> = None;
        let m = pmu.measure(&group, &mut |probe| {
            if let Err(e) = classifier.classify_traced(image, probe) {
                nn_err = Some(e);
            }
        })?;
        if let Some(e) = nn_err {
            return Err(e.into());
        }
        total += m.value(HpcEvent::Cycles).unwrap_or(0);
    }
    Ok(total as f64 / OVERHEAD_REPS as f64)
}

/// Marks the Pareto-dominant set in place: non-baseline arms whose
/// leakage strictly improves on the baseline's and that no other such
/// candidate weakly dominates on (leakage, overhead), both minimized.
fn mark_pareto(rows: &mut [FrontierRow]) {
    let baseline_leakage = rows[0].leakage;
    let candidate: Vec<bool> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| i != 0 && r.leakage < baseline_leakage)
        .collect();
    for i in 0..rows.len() {
        if !candidate[i] {
            continue;
        }
        let dominated = rows.iter().enumerate().any(|(j, other)| {
            candidate[j]
                && j != i
                && other.leakage <= rows[i].leakage
                && other.overhead <= rows[i].overhead
                && (other.leakage < rows[i].leakage || other.overhead < rows[i].overhead)
        });
        rows[i].pareto = !dominated;
    }
}

/// Runs the frontier campaign: calibrates the noise arm, then evaluates
/// every arm against both adversaries and the cycle meter, and marks
/// the Pareto-dominant set.
///
/// Arms run through [`map_arms`] on `threads` workers (inner
/// experiments forced to one thread), all on one [`Campaign`]'s shared
/// model (`shared` when the caller holds `base`'s model); with a
/// `cache`, each arm's observations resume per category and each arm's
/// extraction corpus is checkpointed under its content-addressed trace
/// key.
///
/// # Errors
///
/// Returns [`Error`] when `profile_split` rejects the split (checked
/// before any training) or any arm's training, measurement or
/// profiling fails.
pub fn run_frontier(
    base: &ExperimentConfig,
    opts: &FrontierOptions,
    threads: Threads,
    cache: Option<&ArtifactCache>,
    shared: Option<&TrainedModel>,
) -> Result<FrontierOutcome, Error> {
    let profile_n = profile_split(base.collection.samples_per_category, opts.profile_fraction)?;
    let _span = scnn_obs::Span::enter("frontier.run");
    let mut base = base.clone().threads(threads);
    // Both adversaries watch the full Fig 2b event set, like the sweep.
    base.collection.events = scnn_hpc::HpcEvent::FIG2B.to_vec();
    // 48 cells per arm (8 events × 6 pairs): raw per-cell verdicts at
    // 95% confidence would false-alarm on ~2.4 quiet cells per arm, so
    // the alarm and the cell count use Holm-corrected verdicts (see
    // `LeakageReport::cell_stats`).
    base.evaluator.holm_alpha = Some(0.05);

    // Everything downstream shares one victim.
    let campaign = Campaign::new(&base, cache, shared)?;
    let net = &campaign.model().network;
    let test_set = base.generate_dataset(base.test_per_class, base.seed ^ 0xFACE)?;
    let (first_image, _) = test_set
        .get(0)
        .ok_or_else(|| Error::msg("frontier needs a non-empty test set"))?;
    let truth = extract::ground_truth(net, first_image.shape())?;

    let calibration = calibrate_noise(&campaign, &base, opts.target_t)?;
    let (calibrated, converged) = (calibration.dummy_events, calibration.converged);

    // Each arm carries the evaluator outcome it already has, if any: the
    // last calibration probe ran exactly the calibrated-noise arm's
    // experiment (results do not depend on the thread count).
    let mut arms: Vec<_> = fixed_arms(opts)
        .into_iter()
        .map(|(name, cm)| (name, cm, None))
        .collect();
    arms.push((
        "calibrated-noise",
        Some(Countermeasure::CalibratedNoise {
            target_t: opts.target_t,
            dummy_events: calibrated,
        }),
        Some(calibration.outcome),
    ));

    let mut rows = map_arms(threads, "frontier.arm", arms, |_, (name, cm, ran)| {
        // Evaluator adversary: the full pairwise-t-test experiment.
        let outcome = match ran {
            Some(outcome) => outcome,
            None => {
                let mut cfg = base.clone().threads(Threads::Count(1));
                cfg.countermeasure = cm;
                campaign.run(cfg)?
            }
        };
        let stats = outcome.report.cell_stats();

        // Extraction adversary: profile a trace corpus, score recovery.
        let (corpus, trace_hit) = extract::obtain_traces(&base, net, &test_set, cm, cache)?;
        let (_, score, _) = extract::profile_and_score(&corpus, profile_n, &truth)?;

        // Overhead axis: mean cycles per traced inference.
        let cycles = mean_cycles(&base, net, &test_set, cm)?;

        let cell_ratio = if stats.total == 0 {
            0.0
        } else {
            stats.distinguishable as f64 / stats.total as f64
        };
        Ok::<FrontierRow, Error>(FrontierRow {
            arm: name.to_owned(),
            countermeasure: cm,
            alarm: stats.alarm,
            distinguishable_pairs: stats.distinguishable,
            total_pairs: stats.total,
            max_abs_t: stats.max_abs_t,
            extraction_overall: score.overall,
            mean_cycles: cycles,
            overhead: 0.0, // relative to baseline, filled below
            leakage: 0.5 * cell_ratio + 0.5 * score.overall,
            pareto: false, // marked below
            test_accuracy: outcome.test_accuracy,
            cache: outcome.cache,
            trace_cache_hit: trace_hit,
        })
    })?;
    let baseline_cycles = rows[0].mean_cycles;
    for row in &mut rows {
        row.overhead = if baseline_cycles > 0.0 {
            row.mean_cycles / baseline_cycles
        } else {
            1.0
        };
    }
    mark_pareto(&mut rows);
    Ok(FrontierOutcome {
        rows,
        calibrated_dummy_events: calibrated,
        target_t: opts.target_t,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(arm: &str, leakage: f64, overhead: f64) -> FrontierRow {
        FrontierRow {
            arm: arm.to_owned(),
            countermeasure: None,
            alarm: false,
            distinguishable_pairs: 0,
            total_pairs: 10,
            max_abs_t: 0.0,
            extraction_overall: leakage,
            mean_cycles: overhead,
            overhead,
            leakage,
            pareto: false,
            test_accuracy: 1.0,
            cache: CacheUsage::default(),
            trace_cache_hit: false,
        }
    }

    #[test]
    fn pareto_excludes_dominated_and_baseline() {
        let mut rows = vec![
            row("baseline", 0.9, 1.0),
            row("cheap-leaky", 0.5, 1.1),
            row("dominated", 0.6, 1.5), // beaten by cheap-leaky on both axes
            row("tight", 0.1, 2.0),
            row("worse-than-baseline", 0.95, 3.0),
        ];
        mark_pareto(&mut rows);
        let pareto: Vec<&str> = rows
            .iter()
            .filter(|r| r.pareto)
            .map(|r| r.arm.as_str())
            .collect();
        assert_eq!(pareto, ["cheap-leaky", "tight"]);
    }

    #[test]
    fn pareto_keeps_ties_and_incomparables() {
        // Two arms tied on both axes: neither strictly improves on the
        // other, so both survive (weak dominance needs one strict edge).
        let mut rows = vec![
            row("baseline", 0.9, 1.0),
            row("a", 0.4, 1.2),
            row("b", 0.4, 1.2),
        ];
        mark_pareto(&mut rows);
        assert!(rows[1].pareto && rows[2].pareto);
        assert!(!rows[0].pareto, "the baseline is never on the frontier");
    }

    #[test]
    fn render_table_is_fixed_layout() {
        let mut rows = vec![row("baseline", 0.9, 1.0), row("constant-time", 0.2, 1.8)];
        mark_pareto(&mut rows);
        let outcome = FrontierOutcome {
            rows,
            calibrated_dummy_events: 4_000,
            target_t: 1.5,
            converged: false,
        };
        let table = outcome.render_table();
        assert!(table.contains("overhead"));
        assert!(table.contains("constant-time"));
        assert_eq!(outcome.pareto_arms(), ["constant-time"]);
        let json = outcome.to_json();
        assert!(json.contains("\"pareto\":[\"constant-time\"]"), "{json}");
        assert!(json.contains("\"calibrated_dummy_events\":4000"));
        assert!(json.contains("\"converged\":false"), "{json}");
    }

    #[test]
    fn check_json_names_each_broken_rule() {
        // Every rule holds: the baseline and two protected arms alarm,
        // two stay quiet, and `noise-injection` alone is on the frontier
        // (it dominates `decoy-inference`).
        let mut rows = vec![
            row("baseline", 0.9, 1.0),
            row("constant-time", 0.2, 1.8),
            row("shuffle", 0.9, 1.1),
            row("noise-injection", 0.5, 1.3),
            row("decoy-inference", 0.6, 1.5),
            row("oblivious-shape", 0.1, 2.5),
        ];
        for i in [0, 2, 3, 4] {
            rows[i].alarm = true;
        }
        rows[3].pareto = true;
        let valid = FrontierOutcome {
            rows,
            calibrated_dummy_events: 4_000,
            target_t: 1.5,
            converged: true,
        }
        .to_json();
        crate::json::assert_each_rule(
            check_json,
            &valid,
            &[
                ("rows", None, "non-array \"rows\""),
                ("rows/5", None, "only 5 arms"),
                ("rows/3/arm", None, "row missing string"),
                ("rows/3/alarm", None, "missing boolean \"alarm\""),
                ("rows/3/leakage", Some("1.5"), "1.5 is outside [0, 1]"),
                ("rows/3/extraction_overall", Some("-0.5"), "outside"),
                ("rows/3/mean_cycles", Some("0"), "= 0 is not positive"),
                ("rows/3/overhead", Some("-1"), "= -1 is not positive"),
                ("rows/3/pareto", None, "missing boolean \"pareto\""),
                ("rows/0/arm", Some("\"none\""), "no \"baseline\" row"),
                ("rows/0/overhead", Some("1.5"), "overhead is 1.5"),
                ("rows/0/alarm", Some("false"), "baseline must raise"),
                ("rows/1/alarm", Some("true"), "only 1 protected arms"),
                ("rows/3/pareto", Some("false"), "empty Pareto set"),
                ("rows/0/pareto", Some("true"), "can never be on"),
                ("rows/2/pareto", Some("true"), "leaks 0.9 >= baseline"),
                ("rows/4/pareto", Some("true"), "is dominated by"),
                ("pareto", Some("[]"), "lists 0 arms but 1 rows"),
                ("calibrated_dummy_events", None, "missing numeric"),
                ("target_t", Some("null"), "missing numeric"),
                ("converged", None, "missing boolean \"converged\""),
            ],
        );
    }

    #[test]
    fn options_default_matches_the_ablation_budget() {
        let opts = FrontierOptions::default();
        assert_eq!(opts.dummy_events, 20_000);
        assert!(opts.target_t < 2.0, "target sits below the |t| threshold");
        assert_eq!(fixed_arms(&opts).len(), 6, "six fixed arms + calibrated");
    }
}
