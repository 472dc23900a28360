//! # scnn-bench
//!
//! Benchmark harness and paper-artefact regeneration for the `scnn`
//! workspace. The interesting entry points are:
//!
//! - the `repro` binary (`cargo run --release -p scnn-bench --bin repro`),
//!   which regenerates every table and figure of the paper plus the
//!   extension experiments;
//! - the benches under `benches/` (`cargo bench`), which measure the
//!   throughput of each substrate (t-tests, cache simulation, traced
//!   inference, the full evaluator, the template attack) on the in-tree
//!   [`harness`].
//!
//! This library target only hosts small helpers shared between them.

#![warn(missing_docs)]

pub mod flags;
pub mod harness;

use flags::{FlagError, FlagSet};
use scnn_core::pipeline::{DatasetKind, ExperimentConfig};

/// The `repro` binary's artefact commands, in `repro all` order — the
/// names of its command table, listed by the usage line.
pub const REPRO_COMMANDS: [&str; 15] = [
    "fig1", "fig2b", "fig3", "fig4", "table1", "table2", "attack", "extract", "ablation", "noise",
    "events", "uarch", "archs", "sweep", "frontier",
];

/// The `repro` binary's flag vocabulary — declared here (not in the
/// binary) so unit tests can exercise every flag without spawning a
/// process.
pub fn repro_flags() -> FlagSet {
    FlagSet::new(
        "repro",
        format!("<{}|serve|all> [options]", REPRO_COMMANDS.join("|")),
    )
    .value(
        "--samples",
        "N",
        "measurements per category, 2 to 1000000 (default 100)",
    )
    .switch("--quick", "tiny models and few samples, for smoke tests")
    .value(
        "--classifier",
        "NAME",
        "for `attack`: profiling classifier (gaussian-template|lda|knn[:K]); default runs all three",
    )
    .value(
        "--profile-frac",
        "F",
        "for `attack`/`extract`/`frontier`: fraction of measurements spent profiling, in (0,1) (defaults 0.5/0.75/0.6)",
    )
    .value(
        "--threads",
        "N|auto",
        "worker threads; output is bit-identical at every setting",
    )
    .value("--csv", "DIR", "also write raw figure/table series as CSV files")
    .value(
        "--telemetry",
        "PATH",
        "write span/metric telemetry JSON and show live phase progress on stderr",
    )
    .value(
        "--cache-dir",
        "DIR",
        "reuse trained models and per-category observations across runs; stdout stays byte-identical",
    )
    .value(
        "--uarch",
        "NAME|PATH",
        "simulated platform: a preset name from the zoo or a JSON config file",
    )
    .value(
        "--out",
        "PATH",
        "for `sweep`/`extract`/`frontier`: write the result as JSON; for `serve`: write the service report as JSON",
    )
    .value(
        "--dummy-events",
        "N",
        "for `ablation`/`extract`/`frontier`: mean dummy events of the noise arms, 1 to 10000000 (default 20000)",
    )
    .value(
        "--decoys",
        "N",
        "for `frontier`: decoy classifications per real inference, 1 to 1000 (default 3)",
    )
    .value(
        "--target-t",
        "T",
        "for `frontier`: max-|t| target of the calibrated-noise arm (default 1.5)",
    )
    .value(
        "--workers",
        "N|auto",
        "for `serve`: size of the job-executing worker fleet (default auto)",
    )
    .value(
        "--jobs",
        "PATH",
        "for `serve`: read newline-delimited job JSON from a file instead of stdin",
    )
    .value(
        "--socket",
        "PATH",
        "for `serve`: accept job connections on a Unix socket instead of stdin/stdout",
    )
    .value(
        "--cache-budget",
        "BYTES",
        "for `serve`: evict oldest artifacts past this cache size after the run",
    )
    .value(
        "--job-stdout-dir",
        "DIR",
        "for `serve`: additionally write each job's captured stdout to DIR/<id>.out",
    )
    .switch("--help", "print this help")
}

/// Parses a value-taking flag as a strictly positive integer: zero is a
/// typed [`FlagError::Invalid`], not a silent no-op arm (a noise
/// countermeasure with zero dummy events, or a decoy arm with zero
/// decoys, measures nothing and would masquerade as protection).
///
/// # Errors
///
/// [`FlagError::Invalid`] on non-numeric input or zero.
pub fn parse_positive_u64(flag: &'static str, value: &str) -> Result<u64, FlagError> {
    let n: u64 = value.parse().map_err(|_| FlagError::Invalid {
        flag,
        reason: format!("expected a positive integer, got {value:?}"),
    })?;
    if n == 0 {
        return Err(FlagError::Invalid {
            flag,
            reason: "must be positive".to_owned(),
        });
    }
    Ok(n)
}

/// Parses a value-taking flag as a finite, strictly positive float
/// (thresholds like `--target-t`).
///
/// # Errors
///
/// [`FlagError::Invalid`] on non-numeric, non-finite or non-positive
/// input.
pub fn parse_positive_f64(flag: &'static str, value: &str) -> Result<f64, FlagError> {
    let t: f64 = value.parse().map_err(|_| FlagError::Invalid {
        flag,
        reason: format!("expected a number, got {value:?}"),
    })?;
    if !t.is_finite() || t <= 0.0 {
        return Err(FlagError::Invalid {
            flag,
            reason: format!("must be finite and positive, got {value}"),
        });
    }
    Ok(t)
}

/// A small but paper-shaped experiment configuration used by benches:
/// paper-scale models with few training examples and measurements so a
/// benchmark iteration stays in the tens-of-milliseconds range.
pub fn bench_config(dataset: DatasetKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(dataset);
    cfg.train_per_class = 8;
    cfg.test_per_class = 4;
    cfg.train.epochs = 1;
    cfg.collection.samples_per_category = 4;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_small() {
        let cfg = bench_config(DatasetKind::Mnist);
        assert!(cfg.train_per_class <= 10);
        assert!(cfg.collection.samples_per_category <= 10);
    }

    #[test]
    fn repro_samples_flag_takes_a_value() {
        let p = repro_flags().parse(["table1", "--samples", "8"]).unwrap();
        assert_eq!(p.positionals, ["table1"]);
        assert_eq!(p.value("--samples"), Some("8"));
    }

    #[test]
    fn repro_quick_flag_is_a_switch() {
        let p = repro_flags().parse(["--quick"]).unwrap();
        assert!(p.is_set("--quick"));
    }

    #[test]
    fn repro_threads_flag_takes_a_value() {
        let p = repro_flags().parse(["--threads", "auto"]).unwrap();
        assert_eq!(p.value("--threads"), Some("auto"));
    }

    #[test]
    fn repro_csv_flag_takes_a_directory() {
        let p = repro_flags().parse(["--csv", "out/csv"]).unwrap();
        assert_eq!(p.value("--csv"), Some("out/csv"));
    }

    #[test]
    fn repro_telemetry_flag_takes_a_path() {
        let p = repro_flags()
            .parse(["table1", "--telemetry", "out.json"])
            .unwrap();
        assert_eq!(p.value("--telemetry"), Some("out.json"));
        assert_eq!(
            repro_flags().parse(["--telemetry"]).unwrap_err(),
            flags::FlagError::MissingValue("--telemetry")
        );
    }

    #[test]
    fn repro_cache_dir_flag_takes_a_directory() {
        let p = repro_flags()
            .parse(["table1", "--cache-dir", "artifacts"])
            .unwrap();
        assert_eq!(p.value("--cache-dir"), Some("artifacts"));
        assert_eq!(
            repro_flags().parse(["--cache-dir"]).unwrap_err(),
            flags::FlagError::MissingValue("--cache-dir")
        );
    }

    #[test]
    fn repro_uarch_flag_takes_a_name_or_path() {
        let p = repro_flags()
            .parse(["sweep", "--uarch", "mobile-like"])
            .unwrap();
        assert_eq!(p.value("--uarch"), Some("mobile-like"));
        assert_eq!(
            repro_flags().parse(["--uarch"]).unwrap_err(),
            flags::FlagError::MissingValue("--uarch")
        );
    }

    #[test]
    fn repro_out_flag_takes_a_path() {
        let p = repro_flags()
            .parse(["sweep", "--out", "sweep.json"])
            .unwrap();
        assert_eq!(p.value("--out"), Some("sweep.json"));
        assert_eq!(
            repro_flags().parse(["--out"]).unwrap_err(),
            flags::FlagError::MissingValue("--out")
        );
    }

    #[test]
    fn repro_serve_flags_take_values() {
        let p = repro_flags()
            .parse([
                "serve",
                "--workers",
                "3",
                "--jobs",
                "jobs.ndjson",
                "--cache-budget",
                "1048576",
                "--job-stdout-dir",
                "out/jobs",
            ])
            .unwrap();
        assert_eq!(p.positionals, ["serve"]);
        assert_eq!(p.value("--workers"), Some("3"));
        assert_eq!(p.value("--jobs"), Some("jobs.ndjson"));
        assert_eq!(p.value("--cache-budget"), Some("1048576"));
        assert_eq!(p.value("--job-stdout-dir"), Some("out/jobs"));
        for flag in [
            "--workers",
            "--jobs",
            "--socket",
            "--cache-budget",
            "--job-stdout-dir",
        ] {
            assert_eq!(
                repro_flags().parse([flag]).unwrap_err(),
                flags::FlagError::MissingValue(flag),
                "{flag} needs a value"
            );
        }
    }

    #[test]
    fn repro_socket_flag_takes_a_path() {
        let p = repro_flags()
            .parse(["serve", "--socket", "/tmp/repro.sock"])
            .unwrap();
        assert_eq!(p.value("--socket"), Some("/tmp/repro.sock"));
    }

    #[test]
    fn repro_usage_names_both_sweep_commands() {
        let help = repro_flags().help();
        assert!(help.contains("noise"), "Extension C command:\n{help}");
        assert!(help.contains("sweep"), "zoo sweep command:\n{help}");
        assert!(help.contains("serve"), "service command:\n{help}");
        assert!(help.contains("extract"), "extraction command:\n{help}");
    }

    #[test]
    fn repro_classifier_flag_takes_a_name() {
        let p = repro_flags()
            .parse(["attack", "--classifier", "knn:3"])
            .unwrap();
        assert_eq!(p.value("--classifier"), Some("knn:3"));
        assert_eq!(
            repro_flags().parse(["--classifier"]).unwrap_err(),
            flags::FlagError::MissingValue("--classifier")
        );
    }

    #[test]
    fn repro_profile_frac_flag_takes_a_fraction() {
        let p = repro_flags()
            .parse(["extract", "--profile-frac", "0.6"])
            .unwrap();
        assert_eq!(p.positionals, ["extract"]);
        assert_eq!(p.value("--profile-frac"), Some("0.6"));
        assert_eq!(
            repro_flags().parse(["--profile-frac"]).unwrap_err(),
            flags::FlagError::MissingValue("--profile-frac")
        );
    }

    #[test]
    fn repro_frontier_flags_take_values() {
        let p = repro_flags()
            .parse([
                "frontier",
                "--dummy-events",
                "30000",
                "--decoys",
                "2",
                "--target-t",
                "1.8",
            ])
            .unwrap();
        assert_eq!(p.positionals, ["frontier"]);
        assert_eq!(p.value("--dummy-events"), Some("30000"));
        assert_eq!(p.value("--decoys"), Some("2"));
        assert_eq!(p.value("--target-t"), Some("1.8"));
        for flag in ["--dummy-events", "--decoys", "--target-t"] {
            assert_eq!(
                repro_flags().parse([flag]).unwrap_err(),
                flags::FlagError::MissingValue(flag),
                "{flag} needs a value"
            );
        }
        assert!(repro_flags().help().contains("frontier"));
    }

    #[test]
    fn positive_u64_rejects_zero_and_garbage() {
        assert_eq!(parse_positive_u64("--dummy-events", "20000"), Ok(20_000));
        for bad in ["0", "-3", "many", "1.5", ""] {
            let err = parse_positive_u64("--dummy-events", bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    FlagError::Invalid {
                        flag: "--dummy-events",
                        ..
                    }
                ),
                "{bad:?} must be a typed flag error, got {err}"
            );
        }
    }

    #[test]
    fn positive_f64_rejects_nonpositive_and_nonfinite() {
        assert_eq!(parse_positive_f64("--target-t", "1.5"), Ok(1.5));
        for bad in ["0", "-1.5", "nan", "inf", "threshold"] {
            assert!(
                parse_positive_f64("--target-t", bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn repro_help_flag_and_page() {
        let p = repro_flags().parse(["--help"]).unwrap();
        assert!(p.is_set("--help"));
        let help = repro_flags().help();
        for flag in [
            "--samples <N>",
            "--quick",
            "--classifier <NAME>",
            "--profile-frac <F>",
            "--threads <N|auto>",
            "--csv <DIR>",
            "--telemetry <PATH>",
            "--cache-dir <DIR>",
            "--uarch <NAME|PATH>",
            "--out <PATH>",
            "--dummy-events <N>",
            "--decoys <N>",
            "--target-t <T>",
            "--workers <N|auto>",
            "--jobs <PATH>",
            "--socket <PATH>",
            "--cache-budget <BYTES>",
            "--job-stdout-dir <DIR>",
        ] {
            assert!(help.contains(flag), "missing {flag} in:\n{help}");
        }
    }

    #[test]
    fn repro_rejects_unknown_flags() {
        assert_eq!(
            repro_flags().parse(["--bogus"]).unwrap_err(),
            flags::FlagError::Unknown("--bogus".into())
        );
    }
}
