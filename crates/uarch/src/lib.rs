//! # scnn-uarch
//!
//! A from-scratch microarchitectural simulator: set-associative cache
//! hierarchy, branch predictors, TLB, hardware prefetchers, a cycle cost
//! model and an OS-noise model.
//!
//! This crate is the substitute for the physical Intel Xeon E5-2690 on
//! which *"How Secure are Deep Learning Algorithms from Side-Channel based
//! Reverse Engineering?"* (Alam & Mukhopadhyay, DAC 2019) ran its
//! measurements. The paper's hardware-performance-counter readings are
//! deterministic functions of a workload's memory/branch event stream plus
//! system noise; this crate reproduces exactly that mechanism:
//!
//! 1. Instrumented workloads (the CNN kernels in `scnn-nn`) emit their
//!    architectural event stream through the [`Probe`] trait.
//! 2. [`CoreSim`] updates cache/TLB/predictor state per event and derives
//!    cycle counts from a cost model.
//! 3. `scnn-hpc` reads [`CoreSim::snapshot`] and layers perf-style event
//!    selection, counter multiplexing and [`noise`] on top.
//!
//! # Examples
//!
//! ```
//! use scnn_uarch::{CoreConfig, CoreSim, Probe};
//!
//! # fn main() -> Result<(), scnn_uarch::cache::CacheConfigError> {
//! // Model the paper's Xeon E5-2690 and stream a strided scan through it.
//! let mut core = CoreSim::new(CoreConfig::xeon_e5_2690())?;
//! for i in 0..10_000u64 {
//!     core.load(i * 64, 0x40);
//! }
//! let snap = core.snapshot();
//! assert!(snap.llc_misses > 0);
//! assert!(snap.cycles > snap.instructions / 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod core;
pub mod cycles;
pub mod hierarchy;
pub mod noise;
pub mod prefetch;
pub mod probe;
pub mod tlb;

pub use branch::{BranchPredictor, BranchStats, PredictorKind};
pub use cache::{Cache, CacheConfig, CacheStats, ReplacementPolicy, WritePolicy};
pub use config::{CoreConfig, UarchConfig, UarchConfigError};
pub use core::{CoreSim, CounterSnapshot};
pub use cycles::CycleModel;
pub use hierarchy::{HierarchyConfig, LatencyModel, MemoryHierarchy, ServedBy};
pub use noise::{NoiseConfig, NoiseModel, NoiseSample};
pub use prefetch::PrefetcherKind;
pub use probe::{Block, BlockCounts, CountingProbe, MacRun, NullProbe, Probe};
pub use tlb::{Tlb, TlbConfig};
