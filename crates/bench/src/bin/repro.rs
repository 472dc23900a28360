//! `repro` — regenerates every table and figure of the paper.
//!
//! One subcommand per artefact:
//!
//! ```text
//! repro fig1            # Fig 1(a,b): average cache-misses per category
//! repro fig2b           # Fig 2(b): all 8 HPC events of one classification
//! repro fig3            # Fig 3(a,b): MNIST distributions (cache-misses, branches)
//! repro fig4            # Fig 4(a,b): CIFAR-10 distributions
//! repro table1          # Table 1: MNIST pairwise t-tests
//! repro table2          # Table 2: CIFAR-10 pairwise t-tests
//! repro attack          # Extension A: HPC template attack accuracy
//! repro extract         # Extension H: architecture extraction from per-layer traces
//! repro ablation        # Extension B: countermeasure ablation
//! repro noise           # Extension C: leakage vs noise level / sample count
//! repro events          # Extension D: which of the 8 events leak, cold vs warm
//! repro uarch           # Extension E: microarchitectural design ablation
//! repro archs           # Extension F: CNN vs MLP victim architectures
//! repro sweep           # Extension G: t-test evaluation across the preset zoo
//! repro frontier        # Extension I: countermeasure leakage-vs-overhead frontier
//! repro all             # everything above
//! ```
//!
//! Options (see `repro --help` for the generated page): `--samples <n>`
//! (measurements per category, 2 to 10⁶, default 100), `--quick` (tiny
//! models, for smoke tests), `--csv <dir>` (additionally write the raw
//! figure/table series as CSV files for external plotting), `--threads
//! <n|auto>` (worker threads, at least 1, for collection, evaluation,
//! minibatch training and campaign arms; output is bit-identical at
//! every setting), `--telemetry <path>`
//! (record span/metric telemetry to a JSON file and show live per-phase
//! progress on stderr — stdout stays byte-identical), `--cache-dir <dir>`
//! (persist trained models and per-category observations so reruns skip
//! training and collection — stdout stays byte-identical; cache chatter
//! goes to stderr), `--uarch <name|path>` (simulate a different platform:
//! a preset from the zoo — see `scnn_core::zoo` — or a JSON config file),
//! `--classifier <name>` (for `attack`: run one profiling classifier —
//! `gaussian-template`, `lda`, `knn[:K]` — instead of all three),
//! `--profile-frac <f>` (for `attack`/`extract`/`frontier`: the
//! fraction of measurements spent profiling, strictly inside (0, 1);
//! defaults 0.5/0.75/0.6),
//! `--dummy-events <N>` (noise-injection volume for
//! `ablation`/`extract`/`frontier`, default 20000), `--decoys <N>`
//! (decoy classifications per real inference for `frontier`, default
//! 3), `--target-t <T>` (calibration target for the frontier's
//! calibrated-noise arm: double the noise volume until max |t| falls
//! below T, default 1.5), `--out <path>` (for
//! `sweep`/`extract`/`frontier`: also write the result as JSON; for
//! `serve`: write the service report as JSON).
//!
//! # Service mode
//!
//! ```text
//! repro serve           # job server: newline-delimited JSON jobs on stdin
//! ```
//!
//! `serve` turns `repro` into a long-running evaluation service: job
//! specs (`{"id":"a","command":"table1","quick":true,"samples":8}`)
//! stream in over stdin, a file (`--jobs <path>`) or a Unix socket
//! (`--socket <path>`); a bounded worker fleet (`--workers <n|auto>`)
//! executes them against one shared artifact cache (`--cache-dir`), and
//! one JSON response per job streams back in completion order. A job's
//! parameters (`"samples":8`) go through the same option decoder as the
//! flags (`--samples 8`), and the job runs through the **same** `Runner`
//! code path as the direct CLI, so
//! its captured stdout is byte-identical to the equivalent direct
//! invocation (pinned by `ci/check.sh`). `--job-stdout-dir <dir>`
//! writes each job's stdout to `<dir>/<id>.out`; `--cache-budget
//! <bytes>` garbage-collects the shared cache down to a size budget
//! after the run. See DESIGN.md §14 for the protocol and scheduling
//! semantics.

use scnn_bench::repro_flags;
use scnn_cache::{ArtifactCache, CacheKey};
use scnn_core::artifact;
use scnn_core::attack::{AttackClassifier, AttackConfig};
use scnn_core::campaign::{map_arms, obtain_model, Campaign, TrainedModel};
use scnn_core::countermeasure::Countermeasure;
use scnn_core::json::ToJson;
use scnn_core::pipeline::{
    Architecture, CacheUsage, DatasetKind, Experiment, ExperimentConfig, ExperimentOutcome,
};
use scnn_core::report::{render_distributions, render_summary};
use scnn_core::service::{self, CacheTraffic, JobOutput, JobSpec, ServiceConfig, ServiceReport};
use scnn_core::Error;
use scnn_hpc::{CounterGroup, HpcEvent, PerfStat, SimulatedPmu, WarmupPolicy};
use scnn_obs::{Recorder, SpanEvent, SpanPhase};
use scnn_par::Threads;
use scnn_stats::ranktest;
use scnn_uarch::UarchConfig;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Writes one line (or fragment) of artefact output to the runner's
/// sink. Direct CLI runs sink to real stdout; `repro serve` sinks each
/// job to its own buffer **through this same macro and the same Runner
/// methods**, which is what makes service output byte-identical to a
/// direct run by construction. A failed write (a closed stdout, as in
/// `repro ... | head`) returns an [`Error::io`] from the enclosing
/// function, so the run ends with exit 1 instead of a panic.
macro_rules! o {
    ($r:expr) => { writeln!($r.out).map_err(|e| Error::io("stdout", e))? };
    ($r:expr, $($arg:tt)*) => { writeln!($r.out, $($arg)*).map_err(|e| Error::io("stdout", e))? };
}
macro_rules! op {
    ($r:expr, $($arg:tt)*) => { write!($r.out, $($arg)*).map_err(|e| Error::io("stdout", e))? };
}

/// Most measurements per category `--samples` accepts.
const MAX_SAMPLES: usize = 1_000_000;

#[derive(Clone)]
struct Options {
    samples: usize,
    quick: bool,
    csv: Option<PathBuf>,
    threads: Threads,
    telemetry: Option<PathBuf>,
    uarch: Option<UarchConfig>,
    out: Option<PathBuf>,
    /// `--classifier`: restrict `attack` to one profiling classifier.
    classifier: Option<AttackClassifier>,
    /// `--profile-frac`: profiling split for `attack`, `extract` and
    /// `frontier`.
    profile_frac: Option<f64>,
    /// `--dummy-events`: mean dummy events of the noise arms in
    /// `ablation`, `extract` and `frontier` (never 0).
    dummy_events: u64,
    /// `--decoys`: decoy inferences per real one on the frontier's
    /// decoy arm (never 0).
    decoys: u64,
    /// `--target-t`: the calibrated-noise arm's max-|t| target.
    target_t: f64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            samples: 100,
            quick: false,
            csv: None,
            threads: Threads::Auto,
            telemetry: None,
            uarch: None,
            out: None,
            classifier: None,
            profile_frac: None,
            dummy_events: 20_000,
            decoys: 3,
            target_t: 1.5,
        }
    }
}

/// A worker count of at least 1, or `auto`. Zero is rejected rather than
/// read as auto, so a typo never silently means "all cores".
fn parse_threads(flag: &str, text: &str) -> Result<Threads, String> {
    match text.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Threads::Count(n)),
        _ if text.eq_ignore_ascii_case("auto") => Ok(Threads::Auto),
        _ => Err(format!(
            "{flag} needs a count of at least 1 or \"auto\", got {text:?}"
        )),
    }
}

impl Options {
    /// The options every artefact command reads, by flag. A `serve` job
    /// sets the same options by key — the flag without its dashes, `-`
    /// spelled `_` (`--profile-frac` ↔ `"profile_frac"`) — through the
    /// same decoder, [`Options::set`].
    const FLAGS: [&'static str; 9] = [
        "--samples",
        "--quick",
        "--threads",
        "--uarch",
        "--classifier",
        "--profile-frac",
        "--dummy-events",
        "--decoys",
        "--target-t",
    ];

    /// Decodes and validates one option from its flag text (`"true"` for
    /// a set switch).
    fn set(&mut self, flag: &str, text: &str) -> Result<(), String> {
        match flag {
            // Every command ends in pairwise t-tests, which need two
            // observations per category: reject fewer before training.
            // The collector reserves room for every sample up front, so
            // an absurd count would abort the process (and a whole
            // `serve`) on allocation: cap it here too.
            "--samples" => match text.parse::<usize>() {
                Ok(n) if n > MAX_SAMPLES => {
                    return Err(format!(
                        "--samples allows at most {MAX_SAMPLES} per category, got {text:?}"
                    ))
                }
                Ok(n) if n >= 2 => self.samples = n,
                _ => {
                    return Err(format!(
                        "--samples needs a count of at least 2, got {text:?}"
                    ))
                }
            },
            "--quick" => {
                self.quick = text
                    .parse()
                    .map_err(|_| format!("--quick is true or false, got {text:?}"))?;
            }
            "--threads" => self.threads = parse_threads("--threads", text)?,
            "--uarch" => {
                self.uarch =
                    Some(scnn_core::zoo::load_uarch(text).map_err(|e| format!("--uarch: {e}"))?);
            }
            "--classifier" => {
                self.classifier = Some(AttackClassifier::parse_flag(text).ok_or_else(|| {
                    format!("--classifier: unknown classifier {text:?} (expected gaussian-template, lda or knn[:K])")
                })?);
            }
            "--profile-frac" => match text.parse::<f64>() {
                Ok(f) if f > 0.0 && f < 1.0 => self.profile_frac = Some(f),
                _ => {
                    return Err(format!(
                        "--profile-frac needs a fraction in (0,1), got {text:?}"
                    ))
                }
            },
            "--dummy-events" => {
                self.dummy_events = scnn_bench::parse_positive_u64("--dummy-events", text)
                    .map_err(|e| e.to_string())?;
            }
            "--decoys" => {
                self.decoys =
                    scnn_bench::parse_positive_u64("--decoys", text).map_err(|e| e.to_string())?;
            }
            "--target-t" => {
                self.target_t = scnn_bench::parse_positive_f64("--target-t", text)
                    .map_err(|e| e.to_string())?;
            }
            other => return Err(format!("{other} is not an artefact option")),
        }
        Ok(())
    }

    fn config(&self, dataset: DatasetKind) -> ExperimentConfig {
        let base = if self.quick {
            ExperimentConfig::quick(dataset)
        } else {
            ExperimentConfig::paper(dataset)
        };
        // The determinism contract (see DESIGN.md § Parallel execution)
        // guarantees every artefact below is byte-identical whatever the
        // thread setting; only the wall-clock changes.
        let mut cfg = base.samples(self.samples).threads(self.threads);
        if let Some(uarch) = &self.uarch {
            cfg.pmu.core = uarch.core;
        }
        cfg
    }
}

/// One artefact command: prints its artefact to the runner's sink.
type Command<W> = fn(&mut Runner<W>) -> Result<(), Error>;

/// Runs (and caches) the main experiment per dataset, and keeps every
/// victim model it obtains, so `repro all` does not retrain and
/// remeasure for every artefact.
///
/// Generic over the output sink: the CLI hands it real stdout, `repro
/// serve` hands each job a private buffer. Everything an artefact
/// command prints goes through `self.out` (the `o!`/`op!` macros);
/// stderr chatter stays on the process stderr in both modes.
struct Runner<W: Write> {
    options: Options,
    cache: HashMap<&'static str, ExperimentOutcome>,
    /// Every victim model obtained so far, by model key, each trained (or
    /// restored) once for the runner's life and handed to every
    /// experiment and campaign on that key.
    models: HashMap<CacheKey, TrainedModel>,
    /// The on-disk artifact cache behind `--cache-dir`, if set. Distinct
    /// from `cache` above: that one deduplicates within a single `repro`
    /// process, this one persists across processes (and is shared by
    /// every job of a `serve` fleet).
    artifact_cache: Option<ArtifactCache>,
    out: W,
    /// Aggregated artifact-cache traffic across every experiment this
    /// runner executed — reported per job in service mode.
    traffic: CacheTraffic,
}

/// The footnote under every table of distinguishable-pair counts.
const PAIRS_FOOTNOTE: &str = "\n(* category pairs distinguishable at 95% confidence)\n";

/// Category pairs distinguishable at 95% on `event`.
fn leaks(outcome: &ExperimentOutcome, event: HpcEvent) -> usize {
    outcome
        .report
        .event(event)
        .map(|e| e.pairwise.leak_count())
        .unwrap_or(0)
}

/// The default template attack's accuracy, as a table cell.
fn attack_cell(outcome: &ExperimentOutcome) -> String {
    outcome
        .mount_attack(&AttackConfig::default())
        .map(|a| format!("{:.0}%", a.accuracy * 100.0))
        .unwrap_or_else(|_| "n/a".into())
}

impl<W: Write> Runner<W> {
    /// Every artefact command, in `repro all` order. The usage line's
    /// command list ([`scnn_bench::REPRO_COMMANDS`]) matches it name for
    /// name.
    const COMMANDS: [(&'static str, Command<W>); 15] = [
        ("fig1", Self::fig1),
        ("fig2b", Self::fig2b),
        ("fig3", |r| r.distributions(DatasetKind::Mnist)),
        ("fig4", |r| r.distributions(DatasetKind::Cifar10)),
        ("table1", |r| r.table(DatasetKind::Mnist)),
        ("table2", |r| r.table(DatasetKind::Cifar10)),
        ("attack", Self::attack),
        ("extract", Self::extract),
        ("ablation", Self::ablation),
        ("noise", Self::noise),
        ("events", Self::events),
        ("uarch", Self::uarch),
        ("archs", Self::archs),
        ("sweep", Self::sweep),
        ("frontier", Self::frontier),
    ];

    fn new(options: Options, artifact_cache: Option<ArtifactCache>, out: W) -> Self {
        Runner {
            options,
            cache: HashMap::new(),
            models: HashMap::new(),
            artifact_cache,
            out,
            traffic: CacheTraffic::default(),
        }
    }

    /// Prints an artefact's title between two rules.
    fn banner(&mut self, title: &str) -> Result<(), Error> {
        const RULE: &str = "==============================================================";
        o!(self, "{RULE}\n{title}\n{RULE}");
        Ok(())
    }

    /// Reports one experiment's artifact-cache traffic: on stderr (stdout
    /// is byte-identical with and without a cache) and in the runner's
    /// totals. Silent without `--cache-dir`.
    fn log_cache(&mut self, label: &str, u: &CacheUsage) {
        if self.artifact_cache.is_none() {
            return;
        }
        self.traffic.add_usage(u);
        if u.model_hit {
            eprintln!("[cache] {label}: model hit — training skipped");
        } else {
            eprintln!("[cache] {label}: model miss — trained and stored");
        }
        let categories = u.categories_hit + u.categories_collected;
        if categories > 0 {
            eprintln!(
                "[cache] {label}: {}/{categories} categories from cache, {} collected, {} artifacts written",
                u.categories_hit, u.categories_collected, u.writes
            );
        }
    }

    /// Writes `result` to `--out` as JSON, if set.
    fn write_out(&self, command: &str, result: &dyn ToJson) -> Result<(), Error> {
        if let Some(path) = &self.options.out {
            std::fs::write(path, result.to_json())
                .map_err(|e| Error::io(path.display().to_string(), e))?;
            eprintln!("[{command}] wrote {}", path.display());
        }
        Ok(())
    }

    /// Ensures the memoised outcome for `dataset` exists and returns its
    /// key into `self.cache`. Callers index the map themselves
    /// (`&self.cache[key]`) so the borrow stays on that one field and
    /// artefact text can keep flowing to `self.out` alongside it.
    fn ensure(&mut self, dataset: DatasetKind) -> Result<&'static str, Error> {
        let key = match dataset {
            DatasetKind::Mnist => "mnist",
            DatasetKind::Cifar10 => "cifar",
        };
        if !self.cache.contains_key(key) {
            let t0 = Instant::now();
            eprintln!(
                "[repro] running {dataset} experiment (train + {} measurements/category)…",
                self.options.samples
            );
            let cfg = self.options.config(dataset);
            let model_key = artifact::model_key(&cfg);
            let outcome = Experiment::new(cfg)
                .run_with(self.artifact_cache.as_ref(), self.models.get(&model_key))
                .map_err(|e| Error::msg(format!("{dataset} experiment failed: {e}")))?;
            self.models
                .entry(model_key)
                .or_insert_with(|| TrainedModel {
                    network: outcome.network.clone(),
                    train_report: outcome.train_report.clone(),
                    test_accuracy: outcome.test_accuracy,
                });
            self.log_cache(key, &outcome.cache);
            eprintln!(
                "[repro] {dataset} done in {:.1?} (CNN test accuracy {:.1}%)",
                t0.elapsed(),
                outcome.test_accuracy * 100.0
            );
            self.cache.insert(key, outcome);
        }
        Ok(key)
    }

    /// Obtains `cfg`'s victim model once for the runner's life: kept in
    /// memory, else restored from the artifact cache or trained and
    /// stored. Returns its key in `self.models` and whether training was
    /// skipped.
    fn model(&mut self, cfg: &ExperimentConfig) -> Result<(CacheKey, bool), Error> {
        let key = artifact::model_key(cfg);
        if self.models.contains_key(&key) {
            return Ok((key, true));
        }
        let (model, hit) = obtain_model(cfg, self.artifact_cache.as_ref())?;
        self.models.insert(key, model);
        Ok((key, hit))
    }

    /// Runs `arms` as one campaign on `base`'s model — in arm order, on
    /// the `--threads` workers, each arm single-threaded inside — and
    /// returns every `(label, outcome)` in arm order.
    fn run_arms(
        &mut self,
        command: &str,
        base: &ExperimentConfig,
        arms: Vec<(String, ExperimentConfig)>,
    ) -> Result<Vec<(String, ExperimentOutcome)>, Error> {
        let (key, model_hit) = self.model(base)?;
        let shared = Some(&self.models[&key]);
        let campaign = Campaign::new(base, self.artifact_cache.as_ref(), shared)?;
        let outcomes = map_arms(
            self.options.threads,
            "repro.arm",
            arms,
            |_, (label, cfg)| match campaign.run(cfg.threads(Threads::Count(1))) {
                Ok(outcome) => Ok((label, outcome)),
                Err(e) => Err(Error::msg(format!("{command} arm '{label}' failed: {e}"))),
            },
        )?;
        let warm_up = CacheUsage {
            model_hit,
            ..CacheUsage::default()
        };
        self.log_cache(command, &warm_up);
        for (label, outcome) in &outcomes {
            self.log_cache(&format!("{command}/{label}"), &outcome.cache);
        }
        Ok(outcomes)
    }

    /// Writes one CSV file into the `--csv` directory, if set.
    fn write_csv(&self, name: &str, header: &str, rows: &[String]) {
        let Some(dir) = &self.options.csv else {
            return;
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("[repro] cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(name);
        let mut content = String::from(header);
        content.push('\n');
        for row in rows {
            content.push_str(row);
            content.push('\n');
        }
        match std::fs::write(&path, content) {
            Ok(()) => eprintln!("[repro] wrote {}", path.display()),
            Err(e) => eprintln!("[repro] cannot write {}: {e}", path.display()),
        }
    }

    /// Raw per-measurement series of one experiment as CSV rows.
    fn csv_observations(&mut self, dataset: DatasetKind, file: &str) -> Result<(), Error> {
        if self.options.csv.is_none() {
            return Ok(());
        }
        let key = self.ensure(dataset)?;
        let outcome = &self.cache[key];
        let mut rows = Vec::new();
        for obs in &outcome.observations {
            for (event, series) in &obs.per_event {
                for (i, v) in series.iter().enumerate() {
                    rows.push(format!(
                        "{},{},{},{},{v}",
                        dataset,
                        obs.category + 1,
                        event.perf_name(),
                        i
                    ));
                }
            }
        }
        self.write_csv(file, "dataset,category,event,measurement,value", &rows);
        Ok(())
    }

    fn fig1(&mut self) -> Result<(), Error> {
        self.banner("Figure 1: average cache-misses during classification")?;
        for dataset in [DatasetKind::Mnist, DatasetKind::Cifar10] {
            let panel = match dataset {
                DatasetKind::Mnist => "(a) MNIST",
                DatasetKind::Cifar10 => "(b) CIFAR-10",
            };
            let key = self.ensure(dataset)?;
            let outcome = &self.cache[key];
            o!(self, "\n--- Figure 1{panel} ---");
            op!(
                self,
                "{}",
                outcome.report.render_means(HpcEvent::CacheMisses, 40)
            );
            let rows: Vec<String> = outcome
                .report
                .event(HpcEvent::CacheMisses)
                .map(|ev| {
                    ev.summaries
                        .iter()
                        .enumerate()
                        .map(|(c, s)| {
                            format!("{dataset},{},{},{}", c + 1, s.mean(), s.sample_std())
                        })
                        .collect()
                })
                .unwrap_or_default();
            let file = match dataset {
                DatasetKind::Mnist => "fig1a_mnist_means.csv",
                DatasetKind::Cifar10 => "fig1b_cifar_means.csv",
            };
            self.write_csv(file, "dataset,category,mean_cache_misses,std", &rows);
        }
        o!(self);
        Ok(())
    }

    fn fig2b(&mut self) -> Result<(), Error> {
        self.banner("Figure 2(b): HPC events of a single MNIST classification")?;
        let cfg = self.options.config(DatasetKind::Mnist);
        let image = scnn_data::mnist_synth::generate(
            &scnn_data::mnist_synth::MnistSynthConfig {
                per_class: 1,
                side: if self.options.quick { 12 } else { 28 },
                ..Default::default()
            },
            7,
        )?
        .get(0)
        .map(|(img, _)| img.clone())
        .ok_or_else(|| Error::msg("per_class = 1 yields no image"))?;
        // One trained model, one classification, all eight events at once.
        let key = self.ensure(DatasetKind::Mnist)?;
        let outcome = &self.cache[key];
        let pmu = SimulatedPmu::new(cfg.pmu, 0x000F_162B)?;
        let group = CounterGroup::new(HpcEvent::FIG2B.to_vec(), 8)?;
        let mut session = PerfStat::new(pmu, group);
        let net = &outcome.network;
        let report = session.stat(&mut |probe| {
            let _ = net.classify_traced(&image, probe);
        })?;
        o!(self, "{report}");
        Ok(())
    }

    fn distributions(&mut self, dataset: DatasetKind) -> Result<(), Error> {
        let (figure, name) = match dataset {
            DatasetKind::Mnist => ("Figure 3", "MNIST"),
            DatasetKind::Cifar10 => ("Figure 4", "CIFAR-10"),
        };
        self.banner(&format!("{figure}: per-category HPC distributions, {name}"))?;
        let key = self.ensure(dataset)?;
        let outcome = &self.cache[key];
        for (panel, event) in [("a", HpcEvent::CacheMisses), ("b", HpcEvent::Branches)] {
            o!(self, "\n--- {figure}({panel}): {event} ---");
            op!(self, "{}", render_summary(&outcome.observations, event));
            op!(
                self,
                "{}",
                render_distributions(&outcome.observations, event, 12)
            );
        }
        let file = match dataset {
            DatasetKind::Mnist => "fig3_mnist_observations.csv",
            DatasetKind::Cifar10 => "fig4_cifar_observations.csv",
        };
        self.csv_observations(dataset, file)?;
        o!(self);
        Ok(())
    }

    fn table(&mut self, dataset: DatasetKind) -> Result<(), Error> {
        let (table, name) = match dataset {
            DatasetKind::Mnist => ("Table 1", "MNIST"),
            DatasetKind::Cifar10 => ("Table 2", "CIFAR-10"),
        };
        self.banner(&format!(
            "{table}: pairwise t-tests, {name} (* = distinguishable at 95%)"
        ))?;
        let key = self.ensure(dataset)?;
        let outcome = &self.cache[key];
        op!(self, "{}", outcome.report.render_table());

        // Rank-test cross-check (robustness extension).
        o!(
            self,
            "rank-test cross-check (Mann-Whitney p-values, cache-misses):"
        );
        let obs = &outcome.observations;
        for i in 0..obs.len() {
            for j in (i + 1)..obs.len() {
                let a = obs[i].series(HpcEvent::CacheMisses).unwrap_or(&[]);
                let b = obs[j].series(HpcEvent::CacheMisses).unwrap_or(&[]);
                if let Ok(r) = ranktest::mann_whitney_u(a, b) {
                    o!(self, "  u{},{}: p = {:.4}", i + 1, j + 1, r.p);
                }
            }
        }
        o!(self);
        Ok(())
    }

    fn attack(&mut self) -> Result<(), Error> {
        self.banner("Extension A: input-category recovery from HPC readings")?;
        // `--classifier` narrows the panel to one entry; the default
        // three-classifier stdout stays byte-identical when it is absent.
        let classifiers = match self.options.classifier {
            Some(c) => vec![c],
            None => vec![
                AttackClassifier::GaussianTemplate,
                AttackClassifier::Lda,
                AttackClassifier::Knn { k: 5 },
            ],
        };
        // The attack parameters shared by every classifier panel:
        // defaults, with `--profile-frac` applied when given.
        let config = match self.options.profile_frac {
            Some(frac) => AttackConfig::default().profile_fraction(frac),
            None => AttackConfig::default(),
        };
        for dataset in [DatasetKind::Mnist, DatasetKind::Cifar10] {
            let key = self.ensure(dataset)?;
            let outcome = &self.cache[key];
            o!(self, "\n--- {dataset} ---");
            for classifier in &classifiers {
                let label = attack_panel_label(classifier);
                match outcome.mount_attack(&config.classifier(*classifier)) {
                    Ok(out) => {
                        o!(self, "[{label}]");
                        op!(self, "{out}");
                    }
                    Err(e) => o!(self, "[{label}] attack failed: {e}"),
                }
            }
        }
        o!(self);
        Ok(())
    }

    fn extract(&mut self) -> Result<(), Error> {
        self.banner("Extension H: architecture extraction from per-layer traces")?;
        o!(self,
            "(the paper's reverse-engineering threat taken to its conclusion:\n per-layer HPC windows reconstruct the victim's architecture;\n see DESIGN.md §15)\n"
        );
        let cfg = self.options.config(DatasetKind::Mnist);
        let frac = self.options.profile_frac.unwrap_or(0.75);
        let (key, _) = self.model(&cfg)?;
        let outcome = scnn_core::extract::run_extract(
            &cfg,
            frac,
            self.options.dummy_events,
            self.options.threads,
            self.artifact_cache.as_ref(),
            Some(&self.models[&key]),
        )
        .map_err(|e| Error::msg(format!("extraction campaign failed: {e}")))?;
        for row in &outcome.rows {
            if row.trace_cache_hit {
                eprintln!("[cache] extract/{}: trace corpus from cache", row.arm);
            }
        }
        let truth: Vec<String> = outcome
            .truth
            .iter()
            .map(|t| format!("{}[{}]", t.kind.name(), t.dim))
            .collect();
        o!(self, "victim (ground truth): {}", truth.join(" → "));
        o!(self, "\nrecovered per arm:");
        for row in &outcome.rows {
            o!(self, "  {:<16} {}", row.arm, row.hypothesis.render());
        }
        o!(self);
        op!(self, "{}", outcome.render_table());
        o!(self, "\nrecovery vs profiling traces (unprotected arm):");
        o!(self, "{:<8} {:>8} {:>8}", "traces", "overall", "kind-P");
        for p in &outcome.curve {
            o!(
                self,
                "{:<8} {:>8.2} {:>8.2}",
                p.samples,
                p.overall,
                p.kind_precision
            );
        }
        o!(self,
            "\n(scores in [0,1]; agree = held-out single-trace kind agreement;\n countermeasures blur the per-layer windows and recovery degrades)\n"
        );
        let rows: Vec<String> = outcome
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{},{},{},{}",
                    r.arm,
                    r.score.depth_recovered,
                    r.score.depth_truth,
                    r.score.kind_precision,
                    r.score.kind_recall,
                    r.score.dim_accuracy,
                    r.score.activation_accuracy,
                    r.score.overall
                )
            })
            .collect();
        self.write_csv(
            "extract_recovery.csv",
            "arm,depth_recovered,depth_truth,kind_precision,kind_recall,dim_accuracy,activation_accuracy,overall",
            &rows,
        );
        self.write_out("extract", &outcome)
    }

    fn ablation(&mut self) -> Result<(), Error> {
        self.banner("Extension B: countermeasure ablation (MNIST)")?;
        let base = self.options.config(DatasetKind::Mnist);
        let dummy_events = self.options.dummy_events;
        let arms = [
            ("leaky baseline".to_owned(), None),
            (
                "constant-time kernels".to_owned(),
                Some(Countermeasure::ConstantTime),
            ),
            (
                format!("noise injection ({dummy_events} dummy events)"),
                Some(Countermeasure::NoiseInjection { dummy_events }),
            ),
            (
                "combined".to_owned(),
                Some(Countermeasure::Combined { dummy_events }),
            ),
        ]
        .into_iter()
        .map(|(label, countermeasure)| {
            let mut cfg = base.clone();
            cfg.countermeasure = countermeasure;
            (label, cfg)
        })
        .collect();
        let outcomes = self.run_arms("ablation", &base, arms)?;
        o!(
            self,
            "{:<40} {:>12} {:>12} {:>10}",
            "countermeasure",
            "cm pairs*",
            "br pairs*",
            "attack"
        );
        for (label, outcome) in &outcomes {
            o!(
                self,
                "{:<40} {:>10}/6 {:>10}/6 {:>10}",
                label,
                leaks(outcome, HpcEvent::CacheMisses),
                leaks(outcome, HpcEvent::Branches),
                attack_cell(outcome)
            );
        }
        o!(self, "{PAIRS_FOOTNOTE}");
        Ok(())
    }

    fn events(&mut self) -> Result<(), Error> {
        self.banner("Extension D: leakage per HPC event, cold vs warm measurement")?;
        o!(self,
            "(the paper's §5.2: \"we observed that some of the events can\n produce different distributions for different categories\")\n"
        );
        o!(
            self,
            "{:<24} {:>16} {:>16}",
            "event",
            "cold-start",
            "warm-attach"
        );
        let base = self.options.config(DatasetKind::Mnist);
        let arms = [WarmupPolicy::ColdStart, WarmupPolicy::Warm]
            .into_iter()
            .map(|warmup| {
                let mut cfg = base.clone();
                cfg.collection.events = HpcEvent::FIG2B.to_vec();
                cfg.pmu.warmup = warmup;
                (format!("{warmup:?}"), cfg)
            })
            .collect();
        let outcomes = self.run_arms("events", &base, arms)?;
        let (cold, warm) = (&outcomes[0].1, &outcomes[1].1);
        let mut rows: Vec<(&str, usize, usize)> = cold
            .report
            .per_event
            .iter()
            .map(|ev| {
                let name = ev.event.perf_name();
                (name, ev.pairwise.leak_count(), leaks(warm, ev.event))
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (name, cold, warm) in rows {
            o!(self, "{:<24} {:>14}/6 {:>14}/6", name, cold, warm);
        }
        o!(self, "\n(pairs distinguishable at 95%; warm-attach = perf stat -p on a\n long-running service, caches staying warm between classifications)\n");
        Ok(())
    }

    fn archs(&mut self) -> Result<(), Error> {
        self.banner("Extension F: victim architecture comparison (MNIST)")?;
        o!(self,
            "(the paper's future work: \"explore the vulnerabilities in other\n deep learning models\")\n"
        );
        o!(
            self,
            "{:<12} {:>10} {:>12} {:>12} {:>10}",
            "model",
            "accuracy",
            "cm pairs*",
            "br pairs*",
            "attack"
        );
        let base = self.options.config(DatasetKind::Mnist);
        let arms = [("CNN", Architecture::Cnn), ("MLP", Architecture::Mlp)]
            .into_iter()
            .map(|(name, arch)| (name.to_owned(), base.clone().architecture(arch)))
            .collect();
        for (name, outcome) in &self.run_arms("archs", &base, arms)? {
            o!(
                self,
                "{:<12} {:>9.1}% {:>10}/6 {:>10}/6 {:>10}",
                name,
                outcome.test_accuracy * 100.0,
                leaks(outcome, HpcEvent::CacheMisses),
                leaks(outcome, HpcEvent::Branches),
                attack_cell(outcome)
            );
        }
        o!(self, "{PAIRS_FOOTNOTE}");
        Ok(())
    }

    fn uarch(&mut self) -> Result<(), Error> {
        use scnn_uarch::{CacheConfig, PredictorKind, PrefetcherKind};

        self.banner("Extension E: microarchitectural ablation (MNIST, cache-misses)")?;
        o!(
            self,
            "does the leak depend on the platform's microarchitecture?\n"
        );
        let base = self.options.config(DatasetKind::Mnist);
        let mut arms: Vec<(String, ExperimentConfig)> = Vec::new();

        let mut cfg = base.clone();
        cfg.pmu.core = scnn_uarch::CoreConfig::xeon_e5_2690();
        arms.push(("Xeon E5-2690 (paper platform)".into(), cfg));

        for (name, kind) in [
            ("no prefetcher", PrefetcherKind::None),
            ("next-line prefetcher", PrefetcherKind::NextLine),
        ] {
            let mut cfg = base.clone();
            cfg.pmu.core.hierarchy.prefetcher = kind;
            arms.push((name.into(), cfg));
        }
        for (name, bytes, assoc) in [
            ("small LLC (256 KiB)", 256 * 1024, 8),
            ("large LLC (8 MiB)", 8 * 1024 * 1024, 16),
        ] {
            let mut cfg = base.clone();
            cfg.pmu.core.hierarchy.l3 = CacheConfig::new(bytes, assoc, 64);
            arms.push((name.into(), cfg));
        }
        for (name, kind) in [
            ("bimodal predictor", PredictorKind::Bimodal),
            ("perceptron predictor", PredictorKind::Perceptron),
        ] {
            let mut cfg = base.clone();
            cfg.pmu.core.predictor = kind;
            arms.push((name.into(), cfg));
        }

        o!(
            self,
            "{:<34} {:>12} {:>12}",
            "platform variant",
            "cm pairs*",
            "br pairs*"
        );
        for (name, outcome) in &self.run_arms("uarch", &base, arms)? {
            o!(
                self,
                "{:<34} {:>10}/6 {:>10}/6",
                name,
                leaks(outcome, HpcEvent::CacheMisses),
                leaks(outcome, HpcEvent::Branches)
            );
        }
        o!(self, "\n(* category pairs distinguishable at 95% confidence; the leak\n   is robust to platform details — it lives in the software)\n");
        Ok(())
    }

    fn noise(&mut self) -> Result<(), Error> {
        self.banner("Extension C: leakage vs noise level and sample count (MNIST)")?;
        let base = self.options.config(DatasetKind::Mnist);
        const LEVELS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];
        let mut arms: Vec<(String, ExperimentConfig)> = Vec::new();
        for level in LEVELS {
            let mut cfg = base.clone();
            cfg.pmu.noise = cfg.pmu.noise.scaled(level);
            arms.push((format!("{level:.1}x"), cfg));
        }
        for samples in [10, 25, 50, 100] {
            arms.push((samples.to_string(), base.clone().samples(samples)));
        }
        let outcomes = self.run_arms("noise", &base, arms)?;
        let (levels, counts) = outcomes.split_at(LEVELS.len());
        let noise_intro = format!(
            "\nnoise sweep (samples/category = {}):",
            base.collection.samples_per_category
        );
        for (intro, heading, rows) in [
            (noise_intro.as_str(), "noise level", levels),
            (
                "\nsample-count sweep (default noise):",
                "samples/cat",
                counts,
            ),
        ] {
            o!(self, "{intro}");
            o!(
                self,
                "{:<14} {:>14} {:>14}",
                heading,
                "cm pairs*",
                "br pairs*"
            );
            for (label, outcome) in rows {
                o!(
                    self,
                    "{:<14} {:>12}/6 {:>12}/6",
                    label,
                    leaks(outcome, HpcEvent::CacheMisses),
                    leaks(outcome, HpcEvent::Branches)
                );
            }
        }
        o!(self, "{PAIRS_FOOTNOTE}");
        Ok(())
    }

    fn sweep(&mut self) -> Result<(), Error> {
        self.banner("Extension G: t-test evaluation across the microarchitecture zoo")?;
        o!(
            self,
            "(MNIST; one row per simulated platform, same model and seeds)\n"
        );
        let base = self.options.config(DatasetKind::Mnist);
        let zoo = scnn_core::zoo::zoo();
        for preset in &zoo {
            eprintln!("[sweep] preset {}: {}", preset.name, preset.description);
        }
        let (key, _) = self.model(&base)?;
        let outcome = scnn_core::sweep::run_sweep(
            &base,
            &zoo,
            self.options.threads,
            self.artifact_cache.as_ref(),
            Some(&self.models[&key]),
        )
        .map_err(|e| Error::msg(format!("uarch sweep failed: {e}")))?;
        for row in &outcome.rows {
            self.log_cache(&format!("sweep/{}", row.preset), &row.cache);
        }
        op!(self, "{}", outcome.render_table());
        o!(self,
            "\n(pairs = distinguishable (event, category-pair) cells at 95%, over\n all 8 HPC events; alarms on {}/{} platforms)\n",
            outcome.alarms(),
            outcome.rows.len()
        );
        let rows: Vec<String> = outcome
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{}",
                    r.preset, r.alarm, r.distinguishable_pairs, r.total_pairs, r.max_abs_t
                )
            })
            .collect();
        self.write_csv(
            "sweep_uarch_zoo.csv",
            "preset,alarm,distinguishable_pairs,total_pairs,max_abs_t",
            &rows,
        );
        self.write_out("sweep", &outcome)
    }

    fn frontier(&mut self) -> Result<(), Error> {
        self.banner("Extension I: countermeasure leakage-vs-overhead frontier")?;
        o!(self,
            "(MNIST; every countermeasure arm against both adversaries — the\n pairwise-t-test evaluator and architecture extraction — priced in\n simulated cycles relative to the unprotected baseline; see DESIGN.md §16)\n"
        );
        let base = self.options.config(DatasetKind::Mnist);
        let opts = scnn_core::frontier::FrontierOptions {
            dummy_events: self.options.dummy_events,
            decoys: self.options.decoys,
            target_t: self.options.target_t,
            profile_fraction: self.options.profile_frac.unwrap_or(0.6),
        };
        let (key, _) = self.model(&base)?;
        let outcome = scnn_core::run_frontier(
            &base,
            &opts,
            self.options.threads,
            self.artifact_cache.as_ref(),
            Some(&self.models[&key]),
        )
        .map_err(|e| Error::msg(format!("frontier campaign failed: {e}")))?;
        for row in &outcome.rows {
            self.log_cache(&format!("frontier/{}", row.arm), &row.cache);
            if row.trace_cache_hit {
                eprintln!("[cache] frontier/{}: trace corpus from cache", row.arm);
            }
        }
        if outcome.converged {
            o!(
                self,
                "calibrated-noise converged at {} dummy events (max |t| target {})\n",
                outcome.calibrated_dummy_events,
                outcome.target_t
            );
        } else {
            let reached = outcome
                .rows
                .iter()
                .find(|r| r.arm == "calibrated-noise")
                .map_or(f64::NAN, |r| r.max_abs_t);
            o!(
                self,
                "calibrated-noise did not converge: max |t| {:.2} at the {}-dummy-event cap (max |t| target {})\n",
                reached,
                outcome.calibrated_dummy_events,
                outcome.target_t
            );
        }
        op!(self, "{}", outcome.render_table());
        let pareto = outcome.pareto_arms();
        o!(
            self,
            "\npareto frontier: {}",
            if pareto.is_empty() {
                "(none)".to_owned()
            } else {
                pareto.join(", ")
            }
        );
        o!(self,
            "\n(leakage = mean of distinguishable-cell ratio and extraction recovery,\n both in [0,1]; overhead = mean traced-inference cycles vs baseline;\n * = Pareto-dominant among arms that beat the baseline's leakage)\n"
        );
        let rows: Vec<String> = outcome
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{},{},{},{},{}",
                    r.arm,
                    r.alarm,
                    r.distinguishable_pairs,
                    r.total_pairs,
                    r.max_abs_t,
                    r.extraction_overall,
                    r.leakage,
                    r.overhead,
                    r.pareto
                )
            })
            .collect();
        self.write_csv(
            "frontier_pareto.csv",
            "arm,alarm,distinguishable_pairs,total_pairs,max_abs_t,extraction_overall,leakage,overhead,pareto",
            &rows,
        );
        self.write_out("frontier", &outcome)
    }

    /// Dispatches one artefact command (or `all` of them, in table
    /// order). This is the single entry point shared by the direct CLI
    /// and by every `repro serve` job, which is what makes a job's
    /// captured output byte-identical to the equivalent direct run.
    /// `serve` itself is deliberately *not* dispatchable here, so a job
    /// cannot start a nested service.
    fn run_command(&mut self, command: &str) -> Result<(), Error> {
        if command == "all" {
            return Self::COMMANDS.iter().try_for_each(|(_, run)| run(self));
        }
        let (_, run) = Self::COMMANDS
            .iter()
            .find(|(name, _)| *name == command)
            .ok_or_else(|| Error::msg(format!("unknown command {command:?}")))?;
        run(self)
    }
}

/// The attack panel heading for one classifier, the same whether the
/// panel shows all three or `--classifier` picked it.
fn attack_panel_label(classifier: &AttackClassifier) -> String {
    match classifier {
        AttackClassifier::GaussianTemplate => "gaussian template".into(),
        AttackClassifier::Lda => "LDA (pooled covariance)".into(),
        AttackClassifier::Knn { k } => format!("{k}-NN"),
    }
}

/// Live progress on stderr while telemetry is on: one line per
/// phase-level span (depth ≤ 1 — `pipeline.run` and its children).
/// Stderr only; stdout stays byte-identical with telemetry off.
fn phase_progress(event: &SpanEvent) {
    if event.depth > 1 {
        return;
    }
    let indent = if event.depth == 0 { "" } else { "  " };
    match event.phase {
        SpanPhase::Enter => eprintln!("[telemetry] {indent}> {}", event.name),
        SpanPhase::Exit => {
            let elapsed = event.duration.unwrap_or_default();
            eprintln!("[telemetry] {indent}< {} ({elapsed:.1?})", event.name);
        }
    }
}

/// The `serve`-only knobs, parsed from the CLI.
struct ServeOptions {
    workers: Threads,
    jobs: Option<PathBuf>,
    socket: Option<PathBuf>,
    cache_budget: Option<u64>,
    job_stdout_dir: Option<PathBuf>,
    report_out: Option<PathBuf>,
}

impl ServeOptions {
    fn from_flags(parsed: &scnn_bench::flags::Parsed) -> Result<ServeOptions, Error> {
        Ok(ServeOptions {
            workers: match parsed.value("--workers") {
                Some(v) => parse_threads("--workers", v).map_err(Error::msg)?,
                None => Threads::Auto,
            },
            jobs: parsed.value("--jobs").map(PathBuf::from),
            socket: parsed.value("--socket").map(PathBuf::from),
            cache_budget: match parsed.value("--cache-budget") {
                Some(v) => Some(v.parse().map_err(|_| {
                    Error::msg(format!("--cache-budget needs a byte count, got {v:?}"))
                })?),
                None => None,
            },
            job_stdout_dir: parsed.value("--job-stdout-dir").map(PathBuf::from),
            report_out: parsed.value("--out").map(PathBuf::from),
        })
    }
}

/// Executes one service job: builds per-job options (job parameters
/// override the serve-level defaults), runs the command through the
/// same [`Runner`] the CLI uses with a private output buffer, and
/// optionally mirrors that buffer to `<stdout_dir>/<id>.out`.
fn run_job(
    spec: &JobSpec,
    base: &Options,
    cache: Option<&ArtifactCache>,
    stdout_dir: Option<&Path>,
) -> Result<JobOutput, String> {
    // Side files are per-process concerns; jobs only produce stdout.
    let mut options = Options {
        csv: None,
        telemetry: None,
        out: None,
        ..base.clone()
    };
    for flag in Options::FLAGS {
        let key = flag[2..].replace('-', "_");
        if let Some(text) = spec.text_param(&key)? {
            options
                .set(flag, &text)
                .map_err(|e| format!("parameter {key:?}: {e}"))?;
        }
    }
    let mut runner = Runner::new(options, cache.cloned(), Vec::new());
    runner
        .run_command(&spec.command)
        .map_err(|e| e.to_string())?;
    let stdout =
        String::from_utf8(runner.out).map_err(|_| "job produced non-UTF-8 output".to_string())?;
    if let Some(dir) = stdout_dir {
        // The id is a validated slug (see `JobSpec::parse_line`), so it
        // is safe as a file stem.
        let path = dir.join(format!("{}.out", spec.id));
        std::fs::write(&path, &stdout)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(JobOutput {
        stdout,
        cache: cache.is_some().then_some(runner.traffic),
    })
}

/// Folds one connection's report into a whole-service aggregate:
/// counts and cache traffic sum; latency percentiles and queue depth
/// take the worst connection (percentiles do not compose exactly
/// across runs, and worst-case is the operationally useful bound).
fn merge_report(total: &mut ServiceReport, conn: &ServiceReport) {
    total.jobs += conn.jobs;
    total.ok += conn.ok;
    total.errors += conn.errors;
    total.rejected += conn.rejected;
    total.io_errors += conn.io_errors;
    total.shutdown |= conn.shutdown;
    total.max_queue_depth = total.max_queue_depth.max(conn.max_queue_depth);
    // f64::max ignores a NaN operand, so an empty side never clobbers a
    // measured percentile.
    total.p50_ms = total.p50_ms.max(conn.p50_ms);
    total.p99_ms = total.p99_ms.max(conn.p99_ms);
    total.cache.merge(&conn.cache);
}

/// Socket transport: accept connections on a Unix socket one at a time,
/// running the serve loop per connection against the shared executor
/// (and therefore the shared cache), until a connection submits the
/// `shutdown` command.
fn serve_socket<F>(path: &Path, config: &ServiceConfig, executor: F) -> Result<ServiceReport, Error>
where
    F: Fn(&JobSpec) -> Result<JobOutput, String> + Sync,
{
    let io_err = |e: std::io::Error| Error::io(path.display().to_string(), e);
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path).map_err(io_err)?;
    eprintln!("[serve] listening on {}", path.display());
    let started = Instant::now();
    let mut total = ServiceReport {
        jobs: 0,
        ok: 0,
        errors: 0,
        rejected: 0,
        shutdown: false,
        elapsed_s: 0.0,
        jobs_per_sec: f64::NAN,
        p50_ms: f64::NAN,
        p99_ms: f64::NAN,
        max_queue_depth: 0,
        io_errors: 0,
        cache: CacheTraffic::default(),
    };
    loop {
        let (stream, _) = listener.accept().map_err(io_err)?;
        let reader = std::io::BufReader::new(stream.try_clone().map_err(io_err)?);
        let report = service::serve(reader, stream, config, &executor);
        eprintln!(
            "[serve] connection done: {} jobs ({} ok, {} errors, {} rejected)",
            report.jobs, report.ok, report.errors, report.rejected
        );
        let stop = report.shutdown;
        merge_report(&mut total, &report);
        if stop {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    total.elapsed_s = started.elapsed().as_secs_f64();
    total.jobs_per_sec = if total.elapsed_s > 0.0 {
        (total.ok + total.errors + total.rejected) as f64 / total.elapsed_s
    } else {
        f64::NAN
    };
    Ok(total)
}

/// The `repro serve` entry point: wires the chosen transport (stdin, a
/// jobs file, or a Unix socket) to [`service::serve`] with [`run_job`]
/// as the executor, then reports, garbage-collects the shared cache
/// against `--cache-budget`, and writes the service report to `--out`.
fn serve_mode(
    serve: &ServeOptions,
    base: &Options,
    artifact_cache: Option<ArtifactCache>,
) -> Result<(), Error> {
    if let Some(dir) = &serve.job_stdout_dir {
        std::fs::create_dir_all(dir).map_err(|e| Error::io(dir.display().to_string(), e))?;
    }
    let config = ServiceConfig {
        workers: serve.workers,
        // With a stdout dir the response stream stays lean; without one
        // the response itself carries the job's output.
        include_stdout: serve.job_stdout_dir.is_none(),
    };
    let executor = |spec: &JobSpec| {
        run_job(
            spec,
            base,
            artifact_cache.as_ref(),
            serve.job_stdout_dir.as_deref(),
        )
    };
    let report = match (&serve.socket, &serve.jobs) {
        (Some(path), _) => serve_socket(path, &config, executor)?,
        (None, Some(path)) => {
            let file =
                std::fs::File::open(path).map_err(|e| Error::io(path.display().to_string(), e))?;
            service::serve(
                std::io::BufReader::new(file),
                std::io::stdout(),
                &config,
                executor,
            )
        }
        (None, None) => service::serve(
            std::io::stdin().lock(),
            std::io::stdout(),
            &config,
            executor,
        ),
    };
    eprintln!(
        "[serve] {} jobs ({} ok, {} errors, {} rejected) in {:.1}s — {:.1} jobs/s, p50 {:.1} ms, p99 {:.1} ms, peak queue {}",
        report.jobs,
        report.ok,
        report.errors,
        report.rejected,
        report.elapsed_s,
        report.jobs_per_sec,
        report.p50_ms,
        report.p99_ms,
        report.max_queue_depth
    );
    if report.cache.lookups() > 0 {
        eprintln!(
            "[serve] cache: {} lookups, hit rate {:.0}%, {} writes",
            report.cache.lookups(),
            report.cache.hit_rate() * 100.0,
            report.cache.writes
        );
    }
    if let (Some(cache), Some(budget)) = (&artifact_cache, serve.cache_budget) {
        match cache.gc(budget) {
            Ok(gc) => eprintln!(
                "[serve] cache gc: {} artifacts scanned, {} evicted, {} -> {} bytes (budget {budget})",
                gc.scanned, gc.evicted, gc.bytes_before, gc.bytes_after
            ),
            Err(e) => eprintln!("[serve] cache gc failed: {e}"),
        }
    }
    if let Some(path) = &serve.report_out {
        std::fs::write(path, report.to_json())
            .map_err(|e| Error::io(path.display().to_string(), e))?;
        eprintln!("[serve] wrote {}", path.display());
    }
    Ok(())
}

fn run() -> Result<(), Error> {
    let flags = repro_flags();
    let parsed = flags
        .parse(std::env::args().skip(1))
        .map_err(|e| Error::msg(format!("{e} (see repro --help)")))?;
    if parsed.is_set("--help") {
        return write!(std::io::stdout(), "{}", flags.help()).map_err(|e| Error::io("stdout", e));
    }
    let mut options = Options {
        csv: parsed.value("--csv").map(PathBuf::from),
        telemetry: parsed.value("--telemetry").map(PathBuf::from),
        out: parsed.value("--out").map(PathBuf::from),
        ..Options::default()
    };
    for flag in Options::FLAGS {
        // A set switch reads as the text "true", like a job's `true`.
        if let Some(text) = parsed.value(flag).or(parsed.is_set(flag).then_some("true")) {
            options.set(flag, text).map_err(Error::msg)?;
        }
    }
    let artifact_cache = match parsed.value("--cache-dir") {
        Some(dir) => Some(
            ArtifactCache::open(dir).map_err(|e| Error::msg(format!("--cache-dir {dir}: {e}")))?,
        ),
        None => None,
    };
    let command = match parsed.positionals.as_slice() {
        [one] => one.clone(),
        [] => return Err(Error::msg(format!("missing command\n{}", flags.help()))),
        more => {
            return Err(Error::msg(format!(
                "expected one command, got {}",
                more.join(" ")
            )))
        }
    };

    // Telemetry is observation-only: install the recorder around the
    // whole command, write the snapshot after it finishes.
    let recorder = options.telemetry.is_some().then(|| {
        let recorder = Arc::new(Recorder::with_observer(Box::new(phase_progress)));
        scnn_obs::install(recorder.clone());
        recorder
    });
    let telemetry_path = options.telemetry.clone();

    if command == "serve" {
        let serve_options = ServeOptions::from_flags(&parsed)?;
        serve_mode(&serve_options, &options, artifact_cache)?;
    } else {
        // An I/O failure (a closed stdout, say) is no usage error.
        Runner::new(options, artifact_cache, std::io::stdout())
            .run_command(&command)
            .map_err(|e| match e {
                Error::Io { .. } => e,
                e => Error::msg(format!("{e}\n{}", flags.help())),
            })?;
    }

    if let (Some(path), Some(recorder)) = (telemetry_path, recorder) {
        scnn_obs::uninstall();
        let snapshot = recorder.snapshot();
        std::fs::write(&path, snapshot.to_json())
            .map_err(|e| Error::io(path.display().to_string(), e))?;
        eprintln!(
            "[telemetry] wrote {} ({} spans, {} counters, {} histograms, {} series)",
            path.display(),
            snapshot.spans.len(),
            snapshot.counters.len(),
            snapshot.histograms.len(),
            snapshot.series.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_the_command_table_in_order() {
        let names: Vec<&str> = Runner::<Vec<u8>>::COMMANDS
            .iter()
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(names, scnn_bench::REPRO_COMMANDS);
        let help = repro_flags().help();
        let usage = help.lines().next().unwrap();
        assert_eq!(
            usage,
            format!("usage: repro <{}|serve|all> [options]", names.join("|"))
        );
    }

    #[test]
    fn flags_and_job_keys_share_one_decoder() {
        let mut options = Options::default();
        for (flag, text) in [
            ("--samples", "8"),
            ("--quick", "true"),
            ("--threads", "auto"),
            ("--profile-frac", "0.6"),
            ("--dummy-events", "500"),
            ("--decoys", "2"),
            ("--target-t", "1.8"),
        ] {
            options.set(flag, text).unwrap();
        }
        assert_eq!(options.samples, 8);
        let mut most = Options::default();
        most.set("--samples", &MAX_SAMPLES.to_string()).unwrap();
        assert_eq!(most.samples, MAX_SAMPLES);
        assert!(options.quick);
        assert_eq!(options.threads, Threads::Auto);
        assert_eq!(options.profile_frac, Some(0.6));
        assert_eq!((options.dummy_events, options.decoys), (500, 2));
        assert_eq!(options.target_t, 1.8);
        for (flag, bad) in [
            ("--samples", "1"),
            ("--samples", "0"),
            ("--samples", "-3"),
            ("--samples", "1000001"),
            ("--samples", "100000000000"),
            ("--threads", "0"),
            ("--profile-frac", "0"),
            ("--profile-frac", "1"),
            ("--profile-frac", "1.5"),
            ("--profile-frac", "-0.2"),
            ("--profile-frac", "nan"),
            ("--profile-frac", "inf"),
            ("--quick", "yes"),
            ("--dummy-events", "0"),
            ("--target-t", "nan"),
            ("--classifier", "svm"),
        ] {
            assert!(options.set(flag, bad).is_err(), "{flag} {bad}");
        }
    }
}
