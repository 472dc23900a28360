//! Per-layer passes of the traced run: the same traced inference timed
//! into each layer's public entry points in turn.
//!
//! - `nn`: `classify_traced` into a `CountingProbe` — the network's own
//!   event generation with a probe that does nothing but count;
//! - `uarch`: `CoreSim::cold_start`, then `classify_traced` into the
//!   `CoreSim` of the preset; minus the `nn` pass, this is the
//!   simulator's share;
//! - `hpc`: `Pmu::measure` on a warm PMU (no cold start) minus the
//!   workload closure timed from inside it — noise sampling and
//!   multiplexing — and, on request, a `measure_layers` corpus for the
//!   extraction adversary.
//!
//! Each pass builds fresh classifiers from fixed seeds, so its event
//! counts and simulated statistics are a pure function of the inputs.
//! Passes run one repetition at a time in turn, so host contention hits
//! every pass alike; times are raw seconds, for the caller to scale.

use crate::cost::robust_cost;
use crate::lanes::Classifier;
use scnn_core::collect::TracedClassifier;
use scnn_core::extract::LayerWindow;
use scnn_core::{Countermeasure, InferenceTrace};
use scnn_hpc::{CounterGroup, Pmu, SimPmuConfig, SimulatedPmu, WarmupPolicy};
use scnn_nn::Network;
use scnn_tensor::Tensor;
use scnn_uarch::{CoreSim, CounterSnapshot, CountingProbe};
use std::time::Instant;

/// Repetitions of every timed pass.
pub const REPS: usize = 4;

/// Result of the passes over one (victim, preset, arm, image).
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Simulated events (retired instructions) per inference.
    pub events: f64,
    /// Robust seconds of one inference into a `CountingProbe`.
    pub nn_secs: f64,
    /// Robust seconds of one inference into a `CoreSim`.
    pub sim_secs: f64,
    /// Robust seconds of one `CoreSim::cold_start`.
    pub cold_secs: f64,
    /// Robust seconds of a warm `measure` outside its closure.
    pub hpc_secs: f64,
    /// Simulated counters summed over the reps (no noise).
    pub counts: CounterSnapshot,
    /// `measure_layers` traces, when requested.
    pub corpus: Vec<InferenceTrace>,
}

impl Pass {
    /// Mean simulated counts per inference.
    pub fn per_inference(&self, field: fn(&CounterSnapshot) -> u64) -> f64 {
        field(&self.counts) as f64 / REPS as f64
    }
}

/// The state of one pass between repetitions.
pub struct Passes<'a> {
    image: &'a Tensor,
    group: &'a CounterGroup,
    counting: Classifier,
    simulated: Classifier,
    measured: Classifier,
    core: CoreSim,
    warm: SimulatedPmu,
    corpus: Option<(Classifier, SimulatedPmu)>,
    events: u64,
    nn: Vec<f64>,
    sim: Vec<f64>,
    cold: Vec<f64>,
    hpc: Vec<f64>,
    counts: CounterSnapshot,
    traces: Vec<InferenceTrace>,
}

impl<'a> Passes<'a> {
    /// Passes for `image` on `net` under `cm` and `pmu`'s core, measuring
    /// with `group`; with `corpus`, also collects one `measure_layers`
    /// trace per repetition.
    ///
    /// # Errors
    ///
    /// Returns an invalid core geometry as text.
    pub fn new(
        net: &Network,
        cm: Option<Countermeasure>,
        pmu: SimPmuConfig,
        image: &'a Tensor,
        group: &'a CounterGroup,
        seed: u64,
        corpus: bool,
    ) -> Result<Passes<'a>, String> {
        let warm = SimPmuConfig {
            warmup: WarmupPolicy::Warm,
            ..pmu
        };
        let corpus = if corpus {
            let pmu = SimulatedPmu::new(pmu, seed).map_err(|e| e.to_string())?;
            Some((Classifier::new(net, cm, seed), pmu))
        } else {
            None
        };
        Ok(Passes {
            image,
            group,
            counting: Classifier::new(net, cm, seed),
            simulated: Classifier::new(net, cm, seed),
            measured: Classifier::new(net, cm, seed),
            core: CoreSim::new(pmu.core).map_err(|e| e.to_string())?,
            warm: SimulatedPmu::new(warm, seed).map_err(|e| e.to_string())?,
            corpus,
            events: 0,
            nn: Vec::new(),
            sim: Vec::new(),
            cold: Vec::new(),
            hpc: Vec::new(),
            counts: CounterSnapshot::default(),
            traces: Vec::new(),
        })
    }

    /// Runs one repetition of every pass.
    ///
    /// # Errors
    ///
    /// Returns a failing call as text.
    pub fn rep(&mut self) -> Result<(), String> {
        let image = std::hint::black_box(self.image);
        let err = |e: &dyn std::fmt::Display| e.to_string();

        let mut probe = CountingProbe::new();
        let start = Instant::now();
        self.counting
            .classify_traced(image, &mut probe)
            .map_err(|e| err(&e))?;
        self.nn.push(start.elapsed().as_secs_f64());
        self.events += probe.instructions();

        let start = Instant::now();
        self.core.cold_start();
        self.cold.push(start.elapsed().as_secs_f64());
        self.core.reset_counters();
        let start = Instant::now();
        self.simulated
            .classify_traced(image, &mut self.core)
            .map_err(|e| err(&e))?;
        self.sim.push(start.elapsed().as_secs_f64());
        self.counts = add(&self.counts, &self.core.snapshot());

        let measured = &mut self.measured;
        let mut inner = 0.0;
        let mut failure = None;
        let start = Instant::now();
        self.warm
            .measure(self.group, &mut |probe| {
                let start = Instant::now();
                if let Err(e) = measured.classify_traced(image, probe) {
                    failure = Some(e);
                }
                inner = start.elapsed().as_secs_f64();
            })
            .map_err(|e| err(&e))?;
        let total = start.elapsed().as_secs_f64();
        if let Some(e) = failure {
            return Err(err(&e));
        }
        self.hpc.push(total - inner);

        if let Some((classifier, pmu)) = &mut self.corpus {
            let mut failure = None;
            let windows = pmu.measure_layers(&mut |probe| {
                if let Err(e) = classifier.classify_traced(image, probe) {
                    failure = Some(e);
                }
            });
            if let Some(e) = failure {
                return Err(err(&e));
            }
            self.traces.push(InferenceTrace {
                windows: windows
                    .iter()
                    .skip(1)
                    .map(LayerWindow::from_snapshot)
                    .collect(),
            });
        }
        Ok(())
    }

    /// The robust costs and exact counts over the repetitions run.
    pub fn finish(self) -> Pass {
        Pass {
            events: self.events as f64 / self.nn.len().max(1) as f64,
            nn_secs: robust_cost(&self.nn),
            sim_secs: robust_cost(&self.sim),
            cold_secs: robust_cost(&self.cold),
            hpc_secs: robust_cost(&self.hpc),
            counts: self.counts,
            corpus: self.traces,
        }
    }
}

fn add(a: &CounterSnapshot, b: &CounterSnapshot) -> CounterSnapshot {
    CounterSnapshot {
        instructions: a.instructions + b.instructions,
        loads: a.loads + b.loads,
        stores: a.stores + b.stores,
        branches: a.branches + b.branches,
        branch_misses: a.branch_misses + b.branch_misses,
        l1d_accesses: a.l1d_accesses + b.l1d_accesses,
        l1d_misses: a.l1d_misses + b.l1d_misses,
        l2_accesses: a.l2_accesses + b.l2_accesses,
        l2_misses: a.l2_misses + b.l2_misses,
        llc_references: a.llc_references + b.llc_references,
        llc_misses: a.llc_misses + b.llc_misses,
        dtlb_misses: a.dtlb_misses + b.dtlb_misses,
        prefetches: a.prefetches + b.prefetches,
        cycles: a.cycles + b.cycles,
        ref_cycles: a.ref_cycles + b.ref_cycles,
        bus_cycles: a.bus_cycles + b.bus_cycles,
    }
}
