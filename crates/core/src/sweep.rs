//! Microarchitecture sweep: the full t-test evaluation fanned across a
//! zoo of simulated platforms.
//!
//! The paper evaluates one machine (a Xeon E5-2690). The sweep asks the
//! natural follow-up — *does the alarm generalise?* — by running the
//! identical experiment (same dataset, same trained model, same seeds)
//! on every [`UarchConfig`] in a zoo and tabulating, per platform, the
//! alarm verdict, how many category pairs are distinguishable, and the
//! largest |t| observed.
//!
//! Two design points keep the sweep honest and cheap:
//!
//! - **One campaign.** Each preset is one arm of a [`Campaign`]: rows
//!   come back in zoo order regardless of worker count, so sweep output
//!   is byte-identical at any `--threads`.
//! - **Shared model.** Training does not depend on the simulated
//!   platform, and [`crate::artifact::model_key`] excludes the PMU
//!   config, so the model trains once and every preset reuses it;
//!   per-preset observation artifacts are keyed by the full uarch config
//!   (see [`crate::zoo`]), so re-running a sweep resumes per preset.

use crate::campaign::{map_arms, Campaign, TrainedModel};
use crate::json::{ObjectWriter, ToJson};
use crate::pipeline::{CacheUsage, ExperimentConfig, ExperimentError};
use scnn_cache::ArtifactCache;
use scnn_par::Threads;
use scnn_uarch::UarchConfig;

/// One row of the sweep's leak table: the evaluator's verdict on one
/// simulated platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Preset name ([`UarchConfig::name`]).
    pub preset: String,
    /// Whether the evaluator raised the alarm on this platform.
    pub alarm: bool,
    /// Distinguishable `(event, category-pair)` cells — the count of
    /// stars a paper-style t-table would carry for this platform. The
    /// per-pair union is nearly platform-invariant (the leak lives in
    /// the software), but which *events* expose it is a property of the
    /// microarchitecture, so this is the column that separates presets.
    pub distinguishable_pairs: usize,
    /// Total `(event, category-pair)` cells tested.
    pub total_pairs: usize,
    /// Largest |t| across all events and pairs.
    pub max_abs_t: f64,
    /// Per-event distinguishable-pair counts, `(perf name, count)`, in
    /// measurement order.
    pub per_event: Vec<(String, usize)>,
    /// Held-out accuracy of the victim model (identical across rows when
    /// the model artifact is shared).
    pub test_accuracy: f64,
    /// What the artifact cache contributed to this row.
    pub cache: CacheUsage,
}

impl SweepRow {
    fn from_outcome(preset: &str, outcome: &crate::pipeline::ExperimentOutcome) -> SweepRow {
        let report = &outcome.report;
        let stats = report.cell_stats();
        SweepRow {
            preset: preset.to_owned(),
            alarm: stats.alarm,
            distinguishable_pairs: stats.distinguishable,
            total_pairs: stats.total,
            max_abs_t: stats.max_abs_t,
            per_event: report
                .per_event
                .iter()
                .map(|e| (e.event.perf_name().to_owned(), e.pairwise.leak_count()))
                .collect(),
            test_accuracy: outcome.test_accuracy,
            cache: outcome.cache,
        }
    }
}

impl ToJson for SweepRow {
    fn write_json(&self, out: &mut String) {
        struct Events<'a>(&'a [(String, usize)]);
        impl ToJson for Events<'_> {
            fn write_json(&self, out: &mut String) {
                let mut obj = ObjectWriter::new(out);
                for (name, count) in self.0 {
                    obj.field(name, count);
                }
                obj.finish();
            }
        }
        struct Cache(CacheUsage);
        impl ToJson for Cache {
            fn write_json(&self, out: &mut String) {
                let mut obj = ObjectWriter::new(out);
                obj.field("model_hit", &self.0.model_hit)
                    .field("categories_hit", &self.0.categories_hit)
                    .field("categories_collected", &self.0.categories_collected)
                    .field("writes", &self.0.writes);
                obj.finish();
            }
        }
        let mut obj = ObjectWriter::new(out);
        obj.field("preset", &self.preset)
            .field("alarm", &self.alarm)
            .field("distinguishable_pairs", &self.distinguishable_pairs)
            .field("total_pairs", &self.total_pairs)
            .field("max_abs_t", &self.max_abs_t)
            .field("per_event", &Events(&self.per_event))
            .field("test_accuracy", &self.test_accuracy)
            .field("cache", &Cache(self.cache));
        obj.finish();
    }
}

/// The sweep's leak table, rows in zoo order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// One row per preset.
    pub rows: Vec<SweepRow>,
}

impl SweepOutcome {
    /// Number of presets whose evaluation raised the alarm.
    pub fn alarms(&self) -> usize {
        self.rows.iter().filter(|r| r.alarm).count()
    }

    /// Renders the leak table for stdout.
    ///
    /// Column layout is fixed (not derived from the data), so the same
    /// verdicts always produce byte-identical output.
    pub fn render_table(&self) -> String {
        let name_w = self
            .rows
            .iter()
            .map(|r| r.preset.len())
            .max()
            .unwrap_or(6)
            .max("preset".len());
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_w$}  {:>5}  {:>7}  {:>9}\n",
            "preset", "alarm", "pairs", "max |t|"
        ));
        out.push_str(&format!(
            "{:<name_w$}  {:>5}  {:>7}  {:>9}\n",
            "-".repeat(name_w),
            "-----",
            "-------",
            "---------"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<name_w$}  {:>5}  {:>3}/{:<3}  {:>9.2}\n",
                row.preset,
                if row.alarm { "YES" } else { "no" },
                row.distinguishable_pairs,
                row.total_pairs,
                row.max_abs_t,
            ));
        }
        out
    }
}

impl ToJson for SweepOutcome {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("rows", &self.rows)
            .field("alarms", &self.alarms());
        obj.finish();
    }
}

/// A sweep failure, tagged with the preset that caused it.
#[derive(Debug)]
pub struct SweepError {
    /// The offending preset's name.
    pub preset: String,
    /// The underlying experiment failure.
    pub source: ExperimentError,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep preset {:?}: {}", self.preset, self.source)
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Runs `base` once per zoo entry and assembles the leak table.
///
/// The sweep monitors **all eight** of the paper's HPC events (Fig 2b),
/// not just the two headline ones: the per-pair leak verdict is nearly
/// platform-invariant, but *which events* expose it — cache-references
/// tracks L1/L2 geometry, branch-misses tracks the predictor — is
/// exactly what a cross-platform sweep is for.
///
/// Each preset replaces `base.pmu.core` (every other parameter — seeds,
/// samples, evaluator — is held fixed) and runs as one single-threaded
/// arm through [`map_arms`] on `threads` workers, all on one
/// [`Campaign`]'s shared model: `shared` when the caller holds `base`'s
/// model, else one obtained once.
///
/// # Errors
///
/// Returns the first failing preset's [`SweepError`], in zoo order.
pub fn run_sweep(
    base: &ExperimentConfig,
    zoo: &[UarchConfig],
    threads: Threads,
    cache: Option<&ArtifactCache>,
    shared: Option<&TrainedModel>,
) -> Result<SweepOutcome, SweepError> {
    let _span = scnn_obs::Span::enter("sweep.run");
    let mut base = base.clone().threads(threads);
    base.collection.events = scnn_hpc::HpcEvent::FIG2B.to_vec();
    let campaign = Campaign::new(&base, cache, shared).map_err(|source| SweepError {
        preset: "(model warm-up)".to_owned(),
        source,
    })?;
    let rows = map_arms(threads, "sweep.preset", zoo.to_vec(), |_, preset| {
        let mut cfg = base.clone().threads(Threads::Count(1));
        cfg.pmu.core = preset.core;
        campaign
            .run(cfg)
            .map(|o| SweepRow::from_outcome(&preset.name, &o))
            .map_err(|source| SweepError {
                preset: preset.name,
                source,
            })
    })?;
    Ok(SweepOutcome { rows })
}
