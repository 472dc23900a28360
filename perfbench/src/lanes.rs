//! Measurement lanes: one classifier, one simulated PMU and one cycle of
//! images each, driven one op at a time exactly as the pipeline drives
//! them.
//!
//! A lane built by [`Lane::measure`] reproduces one category campaign of
//! `collect::collect_selected`: same classifier factory, same PMU seed
//! (`collect::category_seed`), same image cycle. Lanes share no state,
//! so interleaving them op by op yields each lane's readings unchanged.

use scnn_core::collect::{category_seed, TracedClassifier};
use scnn_core::{CategoryObservations, Countermeasure, InferenceTrace, ProtectedModel};
use scnn_hpc::{CounterGroup, HpcEvent, Pmu, SimPmuConfig, SimulatedPmu};
use scnn_nn::{Network, NnError};
use scnn_tensor::Tensor;
use scnn_uarch::Probe;
use std::collections::BTreeMap;
use std::time::Instant;

/// `pipeline`'s seed derivations: PMU noise and countermeasure streams
/// of category campaigns, and of `extract`'s trace corpora.
pub const PMU_BASE: u64 = 0x9019;
/// See [`PMU_BASE`].
pub const CM_BASE: u64 = 0xD011;
/// See [`PMU_BASE`].
pub const TRACE_PMU_BASE: u64 = 0xE47A;
/// See [`PMU_BASE`].
pub const TRACE_CM_BASE: u64 = 0xE47B;

/// A victim as the measured process runs it: plain or wrapped in a
/// countermeasure.
pub enum Classifier {
    /// The unprotected network.
    Plain(Network),
    /// The network behind a countermeasure.
    Protected(ProtectedModel),
}

impl Classifier {
    /// `net` under `cm`, its countermeasure streams seeded with `seed`.
    pub fn new(net: &Network, cm: Option<Countermeasure>, seed: u64) -> Classifier {
        match cm {
            None => Classifier::Plain(net.clone()),
            Some(cm) => Classifier::Protected(ProtectedModel::new(net.clone(), cm, seed)),
        }
    }
}

impl TracedClassifier for Classifier {
    fn classify_traced(&mut self, image: &Tensor, probe: &mut dyn Probe) -> Result<usize, NnError> {
        match self {
            Classifier::Plain(net) => net.classify_traced(image, probe),
            Classifier::Protected(model) => model.classify_traced(image, probe),
        }
    }
}

/// The PMU call a lane measures with.
pub enum Call {
    /// `Pmu::measure` with this counter group.
    Measure(CounterGroup),
    /// `SimulatedPmu::measure_layers`.
    Layers,
}

/// Timing and outcome of one op.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Op class (lane's first class + image index).
    pub class: usize,
    /// Wall seconds of the whole PMU call.
    pub total: f64,
    /// Wall seconds inside the workload closure (0 unless traced).
    pub inner: f64,
    /// The call succeeded, every reading is finite and the prediction
    /// matches `Network::classify`.
    pub ok: bool,
}

/// One lane.
pub struct Lane {
    /// Index of the victim in the workload.
    pub victim: usize,
    /// Index of the preset in the workload.
    pub preset: usize,
    /// Index of the arm in the workload.
    pub arm: usize,
    /// The category measured (re-mapped label).
    pub category: usize,
    /// Class id of the lane's first image.
    pub first_class: usize,
    call: Call,
    classifier: Classifier,
    pmu: SimulatedPmu,
    images: Vec<Tensor>,
    expected: Vec<usize>,
    next: usize,
    series: BTreeMap<HpcEvent, Vec<f64>>,
    predictions: Vec<usize>,
    traces: Vec<InferenceTrace>,
    digest: u64,
    digest_ops: usize,
}

/// Where a lane sits in the workload and what it runs.
pub struct LaneSite<'a> {
    /// Index of the victim.
    pub victim: usize,
    /// Index of the preset.
    pub preset: usize,
    /// Index of the arm.
    pub arm: usize,
    /// The category (re-mapped label) its images come from.
    pub category: usize,
    /// Class id of its first image.
    pub first_class: usize,
    /// Its images, cycled in order.
    pub images: Vec<Tensor>,
    /// The plain network, for the expected predictions.
    pub net: &'a mut Network,
    /// Ops whose readings enter the lane's digest.
    pub digest_ops: usize,
}

impl Lane {
    fn new(site: LaneSite<'_>, call: Call, classifier: Classifier, pmu: SimulatedPmu) -> Lane {
        let expected = site
            .images
            .iter()
            .map(|im| {
                site.net
                    .classify(im)
                    .expect("victim accepts its own images")
            })
            .collect();
        Lane {
            victim: site.victim,
            preset: site.preset,
            arm: site.arm,
            category: site.category,
            first_class: site.first_class,
            call,
            classifier,
            pmu,
            images: site.images,
            expected,
            next: 0,
            series: BTreeMap::new(),
            predictions: Vec::new(),
            traces: Vec::new(),
            digest: FNV_OFFSET,
            digest_ops: site.digest_ops,
        }
    }

    /// A category campaign of the pipeline: `Pmu::measure` with `group`,
    /// seeded as `Experiment::run` seeds category `site.category` at
    /// experiment seed `seed`.
    ///
    /// # Errors
    ///
    /// Returns the PMU construction error as text.
    pub fn measure(
        site: LaneSite<'_>,
        pmu: SimPmuConfig,
        cm: Option<Countermeasure>,
        group: CounterGroup,
        seed: u64,
    ) -> Result<Lane, String> {
        let classifier =
            Classifier::new(site.net, cm, category_seed(seed ^ CM_BASE, site.category));
        let pmu = SimulatedPmu::new(pmu, category_seed(seed ^ PMU_BASE, site.category))
            .map_err(|e| e.to_string())?;
        Ok(Lane::new(site, Call::Measure(group), classifier, pmu))
    }

    /// A trace corpus of the extraction adversary: `measure_layers`,
    /// seeded as `extract` seeds the arm whose seed tag is `tag`.
    ///
    /// # Errors
    ///
    /// Returns the PMU construction error as text.
    pub fn layers(
        site: LaneSite<'_>,
        pmu: SimPmuConfig,
        cm: Option<Countermeasure>,
        seed: u64,
        tag: usize,
    ) -> Result<Lane, String> {
        let classifier = Classifier::new(site.net, cm, category_seed(seed ^ TRACE_CM_BASE, tag));
        let pmu = SimulatedPmu::new(pmu, category_seed(seed ^ TRACE_PMU_BASE, tag))
            .map_err(|e| e.to_string())?;
        Ok(Lane::new(site, Call::Layers, classifier, pmu))
    }

    /// Images per cycle: the ops one round runs on this lane.
    pub fn cycle(&self) -> usize {
        self.images.len()
    }

    /// Ops run so far.
    pub fn steps(&self) -> usize {
        self.next
    }

    /// True for a `measure_layers` lane.
    pub fn is_layers(&self) -> bool {
        matches!(self.call, Call::Layers)
    }

    /// Measures the next image. With `traced`, also times the workload
    /// closure from inside it.
    pub fn step(&mut self, traced: bool) -> Op {
        let index = self.next % self.images.len();
        self.next += 1;
        let image = &self.images[index];
        let classifier = &mut self.classifier;
        let mut prediction: Result<usize, NnError> = Err(NnError::EmptyNetwork);
        let mut inner = 0.0;
        let mut workload = |probe: &mut dyn Probe| {
            let start = traced.then(Instant::now);
            prediction = classifier.classify_traced(image, probe);
            if let Some(start) = start {
                inner = start.elapsed().as_secs_f64();
            }
        };
        let start = Instant::now();
        let outcome = match &self.call {
            Call::Measure(group) => self
                .pmu
                .measure(group, &mut workload)
                .map(Readings::Counters),
            Call::Layers => Ok(Readings::Windows(self.pmu.measure_layers(&mut workload))),
        };
        let total = start.elapsed().as_secs_f64();

        let class = self.first_class + index;
        let mut ok = matches!(prediction, Ok(p) if p == self.expected[index]);
        let prediction = prediction.unwrap_or(usize::MAX);
        let hash = self.predictions.len() < self.digest_ops;
        match outcome {
            Err(_) => ok = false,
            Ok(Readings::Counters(m)) => {
                for r in &m.readings {
                    let value = r.value() as f64;
                    ok &= value.is_finite() && r.running_fraction().is_finite();
                    if hash {
                        self.digest = fnv(self.digest, r.value());
                    }
                    self.series.entry(r.event).or_default().push(value);
                }
            }
            Ok(Readings::Windows(windows)) => {
                ok &= !windows.is_empty();
                if hash {
                    for w in &windows {
                        for v in [w.instructions, w.loads, w.stores, w.branches, w.cycles] {
                            self.digest = fnv(self.digest, v);
                        }
                    }
                }
                self.traces.push(InferenceTrace {
                    windows: windows
                        .iter()
                        .skip(1)
                        .map(scnn_core::extract::LayerWindow::from_snapshot)
                        .collect(),
                });
            }
        }
        if hash {
            self.digest = fnv(self.digest, prediction as u64);
        }
        self.predictions.push(prediction);
        Op {
            class,
            total,
            inner,
            ok,
        }
    }

    /// The first `n` measurements as the collector reports them.
    pub fn observations(&self, n: usize) -> CategoryObservations {
        CategoryObservations {
            category: self.category,
            per_event: self
                .series
                .iter()
                .map(|(&e, s)| (e, s[..n.min(s.len())].to_vec()))
                .collect(),
            predictions: self.predictions[..n.min(self.predictions.len())].to_vec(),
        }
    }

    /// The first `n` traces of a layers lane.
    pub fn traces(&self, n: usize) -> Vec<InferenceTrace> {
        self.traces[..n.min(self.traces.len())].to_vec()
    }

    /// FNV-1a digest of the readings and predictions of the lane's first
    /// `digest_ops` ops.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

enum Readings {
    Counters(scnn_hpc::Measurement),
    Windows(Vec<scnn_uarch::CounterSnapshot>),
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `value`'s little-endian bytes into an FNV-1a hash.
pub fn fnv(mut h: u64, value: u64) -> u64 {
    for b in value.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
