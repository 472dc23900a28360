//! The paper's evaluator (§4): pairwise t-tests over per-category HPC
//! distributions, raising an alarm when any event distinguishes any pair
//! of categories.

use crate::collect::CategoryObservations;
use scnn_hpc::HpcEvent;
use scnn_par::{Pool, Threads};
use scnn_stats::moments::centered_squares;
use scnn_stats::{DecisionRule, PairResult, PairwiseLeakage, Summary, TTestError, TTestKind};
use std::error::Error;
use std::fmt;

/// Evaluator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluatorConfig {
    /// t-test flavour (the paper just says "t-test"; Welch is the default).
    pub kind: TTestKind,
    /// Decision rule; the paper rejects at 95% confidence, i.e.
    /// `PValue { alpha: 0.05 }`.
    pub rule: DecisionRule,
    /// When set, additionally compute Holm–Bonferroni-corrected verdicts
    /// at this family-wise error rate. The paper tests each pair
    /// uncorrected, but six simultaneous tests at α = 0.05 carry a ~26%
    /// family-wise false-alarm rate — material for a tool whose output is
    /// an alarm.
    pub holm_alpha: Option<f64>,
    /// Also run the second-order (variance) t-test per pair — catches
    /// noise-injection countermeasures that equalise means but not
    /// spreads.
    pub second_order: bool,
    /// Worker threads for the pairwise matrix. Every cell is a pure
    /// function of two per-category summaries and cells are assembled in
    /// `(event, i, j)` order, so the report is identical at every thread
    /// count. Not part of the serialized report.
    pub threads: Threads,
}

impl Default for EvaluatorConfig {
    fn default() -> Self {
        EvaluatorConfig {
            kind: TTestKind::Welch,
            rule: DecisionRule::PValue { alpha: 0.05 },
            holm_alpha: None,
            second_order: false,
            threads: Threads::Auto,
        }
    }
}

/// Error from an evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvaluateError {
    /// Fewer than two categories were observed.
    TooFewCategories {
        /// Categories supplied.
        got: usize,
    },
    /// An event was not measured for every category.
    MissingEvent {
        /// The event.
        event: HpcEvent,
        /// The category lacking it.
        category: usize,
    },
    /// A t-test failed (degenerate samples).
    Stats(TTestError),
}

impl fmt::Display for EvaluateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvaluateError::TooFewCategories { got } => {
                write!(f, "need at least 2 categories, got {got}")
            }
            EvaluateError::MissingEvent { event, category } => {
                write!(f, "event {event} missing for category {category}")
            }
            EvaluateError::Stats(e) => write!(f, "statistics error: {e}"),
        }
    }
}

impl Error for EvaluateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EvaluateError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TTestError> for EvaluateError {
    fn from(e: TTestError) -> Self {
        EvaluateError::Stats(e)
    }
}

/// Leakage verdict for one HPC event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLeakage {
    /// The event.
    pub event: HpcEvent,
    /// Per-category descriptive summaries (indexed by category).
    pub summaries: Vec<Summary>,
    /// The pairwise t-test matrix with verdicts.
    pub pairwise: PairwiseLeakage,
    /// Holm-corrected verdicts, when requested.
    pub holm: Option<PairwiseLeakage>,
    /// Second-order (variance) pairwise matrix, when requested.
    pub second_order: Option<PairwiseLeakage>,
}

impl EventLeakage {
    /// True when this event distinguishes at least one pair.
    pub fn leaks(&self) -> bool {
        self.pairwise.leaks()
    }
}

/// The evaluator's alarm state.
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    events: Vec<HpcEvent>,
}

impl Alarm {
    /// True when the alarm is raised (some event leaks).
    pub fn raised(&self) -> bool {
        !self.events.is_empty()
    }

    /// The events that triggered it.
    pub fn triggering_events(&self) -> &[HpcEvent] {
        &self.events
    }
}

impl fmt::Display for Alarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.raised() {
            write!(f, "ALARM: information leakage via ")?;
            for (i, e) in self.events.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
            Ok(())
        } else {
            write!(f, "no leakage detected")
        }
    }
}

/// Full evaluation result over all monitored events.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageReport {
    /// Per-event leakage assessments, in measurement order.
    pub per_event: Vec<EventLeakage>,
    /// Number of categories evaluated.
    pub categories: usize,
    /// Configuration used.
    pub config: EvaluatorConfig,
}

impl LeakageReport {
    /// The alarm implied by the per-event verdicts.
    pub fn alarm(&self) -> Alarm {
        Alarm {
            events: self
                .per_event
                .iter()
                .filter(|e| e.leaks())
                .map(|e| e.event)
                .collect(),
        }
    }

    /// The assessment of one event, if present.
    pub fn event(&self, event: HpcEvent) -> Option<&EventLeakage> {
        self.per_event.iter().find(|e| e.event == event)
    }

    /// Folds every `(event, category-pair)` cell into [`CellStats`].
    ///
    /// When the report carries Holm-corrected verdicts (requested with
    /// [`EvaluatorConfig::holm_alpha`]) those decide the alarm and the
    /// distinguishable count, keeping the family-wise error of a many-cell
    /// alarm controlled; max |t| stays the raw statistic either way. On a
    /// report without them, `alarm` equals `self.alarm().raised()`.
    pub fn cell_stats(&self) -> CellStats {
        let mut stats = CellStats {
            alarm: false,
            distinguishable: 0,
            total: 0,
            max_abs_t: 0.0,
        };
        for ev in &self.per_event {
            let verdicts = ev.holm.as_ref().unwrap_or(&ev.pairwise);
            stats.total += verdicts.pairs.len();
            stats.distinguishable += verdicts.leak_count();
            for p in &ev.pairwise.pairs {
                stats.max_abs_t = stats.max_abs_t.max(p.test.t.abs());
            }
        }
        stats.alarm = stats.distinguishable > 0;
        stats
    }
}

/// A [`LeakageReport`]'s cells in four numbers (see
/// [`LeakageReport::cell_stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Whether any cell is distinguishable.
    pub alarm: bool,
    /// Distinguishable `(event, category-pair)` cells.
    pub distinguishable: usize,
    /// Total cells tested.
    pub total: usize,
    /// Largest raw |t| across all events and pairs.
    pub max_abs_t: f64,
}

/// The evaluator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Evaluator {
    config: EvaluatorConfig,
}

impl Evaluator {
    /// Creates an evaluator.
    pub fn new(config: EvaluatorConfig) -> Self {
        Evaluator { config }
    }

    /// Runs the paper's hypothesis-testing step over collected
    /// observations.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluateError`] when fewer than two categories are
    /// supplied, an event series is missing, or a t-test degenerates.
    pub fn evaluate(
        &self,
        observations: &[CategoryObservations],
    ) -> Result<LeakageReport, EvaluateError> {
        // Observation-only span/counters; the report never depends on
        // whether a recorder is installed.
        let _span = scnn_obs::Span::enter("evaluate.report");
        if observations.len() < 2 {
            return Err(EvaluateError::TooFewCategories {
                got: observations.len(),
            });
        }
        // Events come from the first category's map; every category must
        // have every event.
        let events: Vec<HpcEvent> = observations[0].per_event.keys().copied().collect();
        let k = observations.len();

        // Per-event summaries (and, when requested, summaries of the
        // centered squares for the second-order test). Cheap single pass;
        // the quadratic work is the pairwise matrix below.
        let mut first: Vec<Vec<Summary>> = Vec::with_capacity(events.len());
        let mut second: Vec<Vec<Summary>> = Vec::new();
        for &event in &events {
            let mut summaries = Vec::with_capacity(k);
            for obs in observations {
                let series = obs.series(event).ok_or(EvaluateError::MissingEvent {
                    event,
                    category: obs.category,
                })?;
                summaries.push(series.iter().copied().collect::<Summary>());
            }
            first.push(summaries);
            if self.config.second_order {
                second.push(
                    observations
                        .iter()
                        .map(|obs| {
                            centered_squares(obs.series(event).unwrap_or(&[]))
                                .iter()
                                .copied()
                                .collect::<Summary>()
                        })
                        .collect(),
                );
            }
        }

        // Every cell of every matrix is a pure function of two summaries,
        // so all cells fan out as one flat job list. Results come back in
        // job order, which makes the assembly below — and therefore the
        // whole report — independent of the thread count.
        let mut jobs: Vec<(usize, bool, usize, usize)> = Vec::new();
        for e in 0..events.len() {
            for i in 0..k {
                for j in (i + 1)..k {
                    jobs.push((e, false, i, j));
                    if self.config.second_order {
                        jobs.push((e, true, i, j));
                    }
                }
            }
        }
        scnn_obs::counter_add("evaluate.ttests", jobs.len() as u64);
        let matrix_span = scnn_obs::Span::enter("evaluate.matrix");
        // One t-test cell is microseconds of special-function work, while
        // a cross-thread dispatch costs comparable time — per-cell jobs
        // measured ~6× slower than sequential (BENCH_parallel.json,
        // evaluate_ms). So the unit of parallelism is a contiguous
        // CELL_CHUNK-cell group: coarse enough to amortise dispatch,
        // ordered so the flatten below reassembles exact job order and
        // the report stays bit-identical across thread counts. Matrices
        // under MIN_PARALLEL_GROUPS groups run the same closure inline.
        const CELL_CHUNK: usize = 64;
        const MIN_PARALLEL_GROUPS: usize = 8;
        let groups: Vec<Vec<(usize, bool, usize, usize)>> =
            jobs.chunks(CELL_CHUNK).map(<[_]>::to_vec).collect();
        let pool = Pool::new(self.config.threads).with_min_jobs(MIN_PARALLEL_GROUPS);
        let (kind, rule) = (self.config.kind, self.config.rule);
        let cell_groups = pool.par_map(groups, |group| {
            group
                .into_iter()
                .map(|(e, is_second, i, j)| {
                    let summaries = if is_second { &second[e] } else { &first[e] };
                    PairResult::compute(summaries, i, j, kind, rule)
                })
                .collect::<Vec<_>>()
        });
        drop(matrix_span);

        let mut cells = cell_groups.into_iter().flatten();
        let mut per_event = Vec::with_capacity(events.len());
        for (event, summaries) in events.iter().copied().zip(first) {
            let mut pairs = Vec::with_capacity(k * (k - 1) / 2);
            let mut second_pairs = Vec::new();
            for i in 0..k {
                for _ in (i + 1)..k {
                    pairs.push(cells.next().expect("one cell per job")?);
                    if self.config.second_order {
                        second_pairs.push(cells.next().expect("one cell per job")?);
                    }
                }
            }
            let pairwise = PairwiseLeakage {
                pairs,
                categories: k,
                rule,
            };
            let holm = self
                .config
                .holm_alpha
                .map(|alpha| pairwise.holm_corrected(alpha));
            let second_order = self.config.second_order.then_some(PairwiseLeakage {
                pairs: second_pairs,
                categories: k,
                rule,
            });
            per_event.push(EventLeakage {
                event,
                summaries,
                pairwise,
                holm,
                second_order,
            });
        }
        Ok(LeakageReport {
            per_event,
            categories: k,
            config: self.config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Builds observations with controlled per-category means.
    fn synth_obs(event_means: &[(HpcEvent, Vec<f64>)], n: usize) -> Vec<CategoryObservations> {
        let categories = event_means[0].1.len();
        (0..categories)
            .map(|c| {
                let mut per_event = BTreeMap::new();
                for (event, means) in event_means {
                    // Deterministic spread ±2 around the mean.
                    let series: Vec<f64> =
                        (0..n).map(|i| means[c] + ((i % 5) as f64 - 2.0)).collect();
                    per_event.insert(*event, series);
                }
                CategoryObservations {
                    category: c,
                    per_event,
                    predictions: vec![c; n],
                }
            })
            .collect()
    }

    #[test]
    fn separated_event_raises_alarm() {
        let obs = synth_obs(
            &[
                (HpcEvent::CacheMisses, vec![100.0, 200.0, 300.0, 400.0]),
                (HpcEvent::Branches, vec![5000.0, 5000.1, 5000.0, 5000.1]),
            ],
            50,
        );
        let report = Evaluator::default().evaluate(&obs).unwrap();
        let alarm = report.alarm();
        assert!(alarm.raised());
        assert!(alarm.triggering_events().contains(&HpcEvent::CacheMisses));
        let cm = report.event(HpcEvent::CacheMisses).unwrap();
        assert!(cm.pairwise.fully_distinguishable());
        let br = report.event(HpcEvent::Branches).unwrap();
        assert!(!br.pairwise.fully_distinguishable());
        assert!(alarm.to_string().contains("cache-misses"));
    }

    #[test]
    fn identical_distributions_stay_quiet() {
        let obs = synth_obs(&[(HpcEvent::Branches, vec![100.0, 100.0, 100.0])], 40);
        let report = Evaluator::default().evaluate(&obs).unwrap();
        assert!(!report.alarm().raised());
        assert_eq!(report.alarm().to_string(), "no leakage detected");
    }

    #[test]
    fn too_few_categories() {
        let obs = synth_obs(&[(HpcEvent::Cycles, vec![1.0])], 10);
        assert!(matches!(
            Evaluator::default().evaluate(&obs),
            Err(EvaluateError::TooFewCategories { got: 1 })
        ));
    }

    #[test]
    fn missing_event_detected() {
        let mut obs = synth_obs(&[(HpcEvent::Cycles, vec![1.0, 2.0])], 10);
        obs[1].per_event.clear();
        assert!(matches!(
            Evaluator::default().evaluate(&obs),
            Err(EvaluateError::MissingEvent { .. })
        ));
    }

    #[test]
    fn summaries_track_categories() {
        let obs = synth_obs(&[(HpcEvent::CacheMisses, vec![10.0, 50.0])], 30);
        let report = Evaluator::default().evaluate(&obs).unwrap();
        let ev = report.event(HpcEvent::CacheMisses).unwrap();
        assert_eq!(ev.summaries.len(), 2);
        assert!((ev.summaries[0].mean() - 10.0).abs() < 1.0);
        assert!((ev.summaries[1].mean() - 50.0).abs() < 1.0);
    }

    #[test]
    fn holm_correction_is_conservative() {
        let obs = synth_obs(
            &[(HpcEvent::CacheMisses, vec![100.0, 103.0, 200.0, 300.0])],
            40,
        );
        let report = Evaluator::new(EvaluatorConfig {
            holm_alpha: Some(0.05),
            ..EvaluatorConfig::default()
        })
        .evaluate(&obs)
        .unwrap();
        let ev = report.event(HpcEvent::CacheMisses).unwrap();
        let holm = ev.holm.as_ref().unwrap();
        assert!(
            holm.leak_count() <= ev.pairwise.leak_count(),
            "corrected verdicts never exceed raw verdicts"
        );
    }

    #[test]
    fn cell_stats_count_holm_verdicts_when_present() {
        // Cache misses: four clear pairs and two borderline ones (|t| ≈
        // 2.2, p ≈ 0.03), significant alone but not after Holm's
        // step-down. Branches: six quiet pairs.
        let obs = synth_obs(
            &[
                (HpcEvent::CacheMisses, vec![100.0, 100.7, 101.4, 300.0]),
                (HpcEvent::Branches, vec![5000.0; 4]),
            ],
            40,
        );
        let evaluate = |holm_alpha| {
            Evaluator::new(EvaluatorConfig {
                holm_alpha,
                ..EvaluatorConfig::default()
            })
            .evaluate(&obs)
            .unwrap()
        };
        let raw_report = evaluate(None);
        let (raw, holm) = (raw_report.cell_stats(), evaluate(Some(0.05)).cell_stats());
        assert_eq!((raw.alarm, raw.distinguishable, raw.total), (true, 6, 12));
        assert_eq!(
            (holm.alarm, holm.distinguishable, holm.total),
            (true, 4, 12)
        );
        assert_eq!(raw.alarm, raw_report.alarm().raised());
        assert!(raw.max_abs_t > 100.0);
        assert_eq!(raw.max_abs_t, holm.max_abs_t, "raw |t| either way");
    }

    #[test]
    fn second_order_detects_variance_leak() {
        // Two categories with identical means but different spreads: the
        // first-order test is blind, the second-order test fires.
        let n = 80;
        let make = |scale: f64| -> Vec<f64> {
            (0..n)
                .map(|i| 1000.0 + ((i % 13) as f64 - 6.0) * scale)
                .collect()
        };
        let mut obs = synth_obs(&[(HpcEvent::CacheMisses, vec![0.0, 0.0])], n);
        obs[0].per_event.insert(HpcEvent::CacheMisses, make(1.0));
        obs[1].per_event.insert(HpcEvent::CacheMisses, make(6.0));
        let report = Evaluator::new(EvaluatorConfig {
            second_order: true,
            ..EvaluatorConfig::default()
        })
        .evaluate(&obs)
        .unwrap();
        let ev = report.event(HpcEvent::CacheMisses).unwrap();
        assert!(!ev.pairwise.leaks(), "first order must be blind here");
        assert!(
            ev.second_order.as_ref().unwrap().leaks(),
            "second order must catch the variance difference"
        );
    }

    #[test]
    fn report_identical_across_thread_counts() {
        let obs = synth_obs(
            &[
                (HpcEvent::CacheMisses, vec![100.0, 200.0, 300.0, 400.0]),
                (HpcEvent::Branches, vec![5000.0, 5000.1, 5000.0, 5000.1]),
            ],
            50,
        );
        let run = |threads: Threads| {
            Evaluator::new(EvaluatorConfig {
                holm_alpha: Some(0.05),
                second_order: true,
                threads,
                ..EvaluatorConfig::default()
            })
            .evaluate(&obs)
            .unwrap()
        };
        let seq = run(Threads::Count(1));
        let par = run(Threads::Count(4));
        // The thread knob itself differs inside `config`; everything the
        // report derives from the data must be bit-identical.
        assert_eq!(seq.per_event, par.per_event);
        assert_eq!(seq.categories, par.categories);
        assert_eq!(seq.alarm(), par.alarm());
    }

    #[test]
    fn parallel_matches_sequential_assess() {
        // The fan-out must assemble exactly the matrix the reference
        // PairwiseLeakage::assess loop produces.
        let obs = synth_obs(&[(HpcEvent::CacheMisses, vec![10.0, 50.0, 90.0])], 30);
        let report = Evaluator::new(EvaluatorConfig {
            threads: Threads::Count(3),
            ..EvaluatorConfig::default()
        })
        .evaluate(&obs)
        .unwrap();
        let ev = report.event(HpcEvent::CacheMisses).unwrap();
        let reference = PairwiseLeakage::assess(
            &ev.summaries,
            TTestKind::Welch,
            DecisionRule::PValue { alpha: 0.05 },
        )
        .unwrap();
        assert_eq!(ev.pairwise, reference);
    }

    #[test]
    fn tvla_rule_respected() {
        let obs = synth_obs(&[(HpcEvent::CacheMisses, vec![100.0, 101.5])], 200);
        // Small shift: significant by p-value at n=200, but |t| < 4.5?
        let p_report = Evaluator::new(EvaluatorConfig {
            kind: TTestKind::Welch,
            rule: DecisionRule::PValue { alpha: 0.05 },
            ..EvaluatorConfig::default()
        })
        .evaluate(&obs)
        .unwrap();
        let t_report = Evaluator::new(EvaluatorConfig {
            kind: TTestKind::Welch,
            rule: DecisionRule::TThreshold { threshold: 25.0 },
            ..EvaluatorConfig::default()
        })
        .evaluate(&obs)
        .unwrap();
        assert!(p_report.alarm().raised());
        assert!(!t_report.alarm().raised(), "stricter threshold stays quiet");
    }
}
