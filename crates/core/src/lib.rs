//! # scnn-core
//!
//! The primary contribution of *"How Secure are Deep Learning Algorithms
//! from Side-Channel based Reverse Engineering?"* (Alam & Mukhopadhyay,
//! DAC 2019): a dynamic **evaluator** that decides whether a CNN
//! classifier's hardware-performance-counter footprint leaks its private
//! inputs.
//!
//! The evaluator's protocol (paper §4):
//!
//! 1. [`collect`](collect::collect) — monitor HPC events around each
//!    classification, per input category;
//! 2. [`Evaluator`] — pairwise t-tests between the
//!    per-category distributions of each event;
//! 3. raise an [`Alarm`] when any pair is
//!    distinguishable at 95% confidence.
//!
//! Beyond the paper's core, the crate implements what its narrative
//! implies or proposes:
//!
//! - [`attack`] — a profiling (Gaussian template / k-NN) adversary that
//!   actually recovers input categories from counter readings, showing
//!   the alarm is not hypothetical;
//! - [`extract`] — the reverse-engineering adversary of the paper's
//!   title: per-layer counter windows invert each kernel's footprint to
//!   reconstruct the victim's architecture (both adversaries share the
//!   [`attack::Adversary`] profile → attack → report contract);
//! - [`countermeasure`] — constant-footprint kernels and noise
//!   injection, the "indistinguishable CPU footprints" the conclusion
//!   calls for, with an ablation pipeline to quantify them;
//! - [`campaign`] — the engine every multi-arm study runs on: one
//!   shared victim model, arms in order, the earliest error in arm
//!   order;
//! - [`pipeline`] — the end-to-end experiment driver (`dataset → train →
//!   collect → evaluate`) used by the `repro` binary to regenerate every
//!   table and figure.
//!
//! # Examples
//!
//! ```no_run
//! use scnn_core::pipeline::{DatasetKind, Experiment, ExperimentConfig};
//!
//! # fn main() -> Result<(), scnn_core::pipeline::ExperimentError> {
//! let outcome = Experiment::new(ExperimentConfig::quick(DatasetKind::Mnist)).run()?;
//! println!("{}", outcome.report.render_table());
//! assert!(outcome.report.alarm().raised());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod attack;
pub mod campaign;
pub mod collect;
pub mod countermeasure;
pub mod error;
pub mod evaluator;
pub mod extract;
pub mod frontier;
pub mod json;
pub mod pipeline;
pub mod report;
pub mod service;
pub mod sweep;
pub mod zoo;

pub use attack::{
    mount_attack, Adversary, AttackClassifier, AttackConfig, AttackOutcome, ClassifierAdversary,
};
pub use collect::{
    collect, CategoryObservations, CollectError, CollectionConfig, TracedClassifier,
};
pub use countermeasure::{Countermeasure, ProtectedModel};
pub use error::{Error, Result};
pub use evaluator::{
    Alarm, CellStats, EvaluateError, Evaluator, EvaluatorConfig, EventLeakage, LeakageReport,
};
pub use extract::{
    run_extract, ArchitectureHypothesis, ExtractOutcome, Extractor, InferenceTrace,
    LayerHypothesis, LayerKind, RecoveryScore, TraceCorpus,
};
pub use frontier::{run_frontier, FrontierOptions, FrontierOutcome, FrontierRow};
pub use json::ToJson;
pub use pipeline::{
    Architecture, CacheUsage, DatasetKind, Experiment, ExperimentConfig, ExperimentOutcome,
    ModelScale,
};
pub use report::{render_distributions, render_kde, render_summary};
