//! The simulated PMU backend: drives workloads through a [`CoreSim`] and
//! layers system noise and counter multiplexing on the raw counts.

use crate::group::CounterGroup;
use crate::pmu::{Measurement, Pmu, PmuError};
use scnn_uarch::{CoreConfig, CoreSim, CounterSnapshot, MacRun, NoiseConfig, NoiseModel, Probe};

/// How the measured process's cache state is treated between measurement
/// windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmupPolicy {
    /// Flush caches and TLB before every measurement — each classification
    /// is measured as a freshly exec'd process (the `perf stat <cmd>`
    /// usage).
    #[default]
    ColdStart,
    /// Keep microarchitectural state warm across measurements — the
    /// `perf stat -p <pid>` attach usage on a long-running service. The
    /// noise model's context switches still pollute between windows.
    Warm,
}

/// Configuration of the simulated PMU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPmuConfig {
    /// The simulated core.
    pub core: CoreConfig,
    /// System-noise model parameters.
    pub noise: NoiseConfig,
    /// Cache-state policy between measurements.
    pub warmup: WarmupPolicy,
    /// Core clock in GHz, used to convert cycles into the
    /// `time_enabled`/`time_running` nanoseconds perf reports.
    pub clock_ghz: f64,
}

impl Default for SimPmuConfig {
    fn default() -> Self {
        SimPmuConfig {
            core: CoreConfig::default(),
            noise: NoiseConfig::default(),
            warmup: WarmupPolicy::ColdStart,
            clock_ghz: 2.9, // Xeon E5-2690 base clock
        }
    }
}

/// A PMU backed by the `scnn-uarch` simulator.
///
/// # Examples
///
/// ```
/// use scnn_hpc::{CounterGroup, HpcEvent, Pmu, SimPmuConfig, SimulatedPmu};
///
/// # fn main() -> Result<(), scnn_hpc::PmuError> {
/// let mut pmu = SimulatedPmu::new(SimPmuConfig::default(), 42)?;
/// let group = CounterGroup::new(vec![HpcEvent::Instructions], 8)?;
/// let m = pmu.measure(&group, &mut |probe| {
///     probe.alu(1_000);
/// })?;
/// assert!(m.value(HpcEvent::Instructions).unwrap() >= 1_000);
/// # Ok(())
/// # }
/// ```
pub struct SimulatedPmu {
    core: CoreSim,
    noise: NoiseModel,
    config: SimPmuConfig,
    measurements_taken: u64,
}

impl std::fmt::Debug for SimulatedPmu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatedPmu")
            .field("config", &self.config)
            .field("measurements_taken", &self.measurements_taken)
            .finish_non_exhaustive()
    }
}

impl SimulatedPmu {
    /// Builds the PMU; `seed` drives the noise model.
    ///
    /// # Errors
    ///
    /// Returns [`PmuError::Cache`] when the core geometry is invalid.
    pub fn new(config: SimPmuConfig, seed: u64) -> Result<Self, PmuError> {
        Ok(SimulatedPmu {
            core: CoreSim::new(config.core)?,
            noise: NoiseModel::new(config.noise, seed),
            config,
            measurements_taken: 0,
        })
    }

    /// The PMU's configuration.
    pub fn config(&self) -> &SimPmuConfig {
        &self.config
    }

    /// Number of measurements taken so far.
    pub fn measurements_taken(&self) -> u64 {
        self.measurements_taken
    }

    fn apply_noise(&mut self, snap: CounterSnapshot) -> CounterSnapshot {
        let n = self.noise.sample(snap.cycles);
        let scale = |v: u64| (v as f64 * n.counter_multiplier).round() as u64;
        let cycles =
            ((snap.cycles + n.instructions / 2) as f64 * n.cycle_multiplier).round() as u64;
        let noisy = CounterSnapshot {
            instructions: scale(snap.instructions + n.instructions),
            loads: scale(snap.loads + n.instructions / 4),
            stores: scale(snap.stores + n.instructions / 10),
            branches: scale(snap.branches + n.branches),
            branch_misses: scale(snap.branch_misses + n.branch_misses),
            l1d_accesses: scale(snap.l1d_accesses + n.instructions / 3),
            l1d_misses: scale(snap.l1d_misses + n.llc_references),
            l2_accesses: scale(snap.l2_accesses + n.llc_references),
            l2_misses: scale(snap.l2_misses + n.llc_misses),
            llc_references: scale(snap.llc_references + n.llc_references),
            llc_misses: scale(snap.llc_misses + n.llc_misses),
            dtlb_misses: scale(snap.dtlb_misses + n.context_switches * 64),
            prefetches: snap.prefetches,
            cycles,
            ref_cycles: self.core.config().cycles.ref_cycles(cycles),
            bus_cycles: self.core.config().cycles.bus_cycles(cycles),
        };
        // A context switch during this window pollutes state for the next
        // one (only observable under the Warm policy).
        if n.context_switches > 0 {
            self.core
                .pollute(0.5, self.measurements_taken.wrapping_mul(0x9E37_79B9));
        }
        noisy
    }

    /// Like [`Pmu::measure`], but segments the counter stream at every
    /// [`Probe::layer_boundary`] the workload reports, returning one noisy
    /// [`CounterSnapshot`] per window.
    ///
    /// Window `i` covers the events between the `i`-th and `(i+1)`-th
    /// boundary (the run's end closes the last window), so a workload that
    /// reports `k` boundaries yields `k + 1` windows and the first window
    /// holds whatever ran before the first boundary. A workload that never
    /// reports a boundary yields exactly one window — the same counts
    /// [`Pmu::measure`] would see. Noise is sampled per window, scaled by
    /// that window's cycle count, exactly as a real per-window
    /// attach/detach would observe it.
    pub fn measure_layers(
        &mut self,
        workload: &mut dyn FnMut(&mut dyn Probe),
    ) -> Vec<CounterSnapshot> {
        if self.config.warmup == WarmupPolicy::ColdStart {
            self.core.cold_start();
        }
        self.core.reset_counters();
        let mut marks = Vec::new();
        {
            let mut capture = LayerCapture {
                core: &mut self.core,
                marks: &mut marks,
            };
            workload(&mut capture);
        }
        marks.push(self.core.snapshot());
        self.measurements_taken += 1;

        let mut windows = Vec::with_capacity(marks.len());
        let mut prev = CounterSnapshot::default();
        for mark in marks {
            let delta = mark.delta(&prev);
            prev = mark;
            windows.push(self.apply_noise(delta));
        }
        windows
    }
}

/// Probe adapter for [`SimulatedPmu::measure_layers`]: forwards every
/// architectural event to the simulated core untouched and snapshots the
/// cumulative counters at each layer boundary. Because boundaries retire
/// nothing, the core sees a stream bit-identical to an unsegmented run.
struct LayerCapture<'c> {
    core: &'c mut CoreSim,
    marks: &'c mut Vec<CounterSnapshot>,
}

impl Probe for LayerCapture<'_> {
    fn load(&mut self, addr: u64, pc: u64) {
        self.core.load(addr, pc);
    }

    fn store(&mut self, addr: u64, pc: u64) {
        self.core.store(addr, pc);
    }

    fn load_run(&mut self, base: u64, stride: i64, count: u64, pc: u64) {
        self.core.load_run(base, stride, count, pc);
    }

    fn store_run(&mut self, base: u64, stride: i64, count: u64, pc: u64) {
        self.core.store_run(base, stride, count, pc);
    }

    fn mac_run(&mut self, run: MacRun) {
        self.core.mac_run(run);
    }

    fn branch(&mut self, pc: u64, taken: bool) {
        self.core.branch(pc, taken);
    }

    fn alu(&mut self, n: u64) {
        self.core.alu(n);
    }

    fn layer_boundary(&mut self, _index: usize) {
        self.marks.push(self.core.snapshot());
    }
}

impl Pmu for SimulatedPmu {
    fn measure(
        &mut self,
        group: &CounterGroup,
        workload: &mut dyn FnMut(&mut dyn Probe),
    ) -> Result<Measurement, PmuError> {
        if self.config.warmup == WarmupPolicy::ColdStart {
            self.core.cold_start();
        }
        self.core.reset_counters();
        workload(&mut self.core);
        let snap = self.core.snapshot();
        let noisy = self.apply_noise(snap);
        self.measurements_taken += 1;

        let window_ns = (noisy.cycles as f64 / self.config.clock_ghz.max(0.1)).round() as u64;
        let readings = group.schedule(window_ns.max(1), |e| e.value_from(&noisy));
        Ok(Measurement {
            readings,
            window_ns: window_ns.max(1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::HpcEvent;

    fn quiet_pmu() -> SimulatedPmu {
        SimulatedPmu::new(
            SimPmuConfig {
                noise: NoiseConfig::quiet(),
                ..SimPmuConfig::default()
            },
            1,
        )
        .unwrap()
    }

    fn group(events: &[HpcEvent]) -> CounterGroup {
        CounterGroup::new(events.to_vec(), 8).unwrap()
    }

    #[test]
    fn quiet_measurement_is_exact_and_deterministic() {
        let mut pmu = quiet_pmu();
        let g = group(&[HpcEvent::Instructions, HpcEvent::Branches]);
        let run = |pmu: &mut SimulatedPmu| {
            pmu.measure(&g, &mut |p| {
                for i in 0..100u64 {
                    p.load(i * 64, 0x40);
                    p.branch(0x40, i % 2 == 0);
                }
                p.alu(500);
            })
            .unwrap()
        };
        let a = run(&mut pmu);
        let b = run(&mut pmu);
        assert_eq!(a.value(HpcEvent::Instructions), Some(700));
        assert_eq!(a.value(HpcEvent::Branches), Some(100));
        // Branch-predictor state legitimately stays warm across runs (as
        // on real hardware), so cycles may differ; retired counts must
        // not.
        assert_eq!(
            a.values(),
            b.values(),
            "cold-start + quiet noise → identical counts"
        );
    }

    #[test]
    fn noise_perturbs_counts() {
        let mut pmu = SimulatedPmu::new(SimPmuConfig::default(), 7).unwrap();
        let g = group(&[HpcEvent::Instructions]);
        let mut values = Vec::new();
        for _ in 0..10 {
            let m = pmu
                .measure(&g, &mut |p| {
                    for i in 0..50_000u64 {
                        p.load((i % 512) * 64, 0x40);
                    }
                })
                .unwrap();
            values.push(m.value(HpcEvent::Instructions).unwrap());
        }
        let all_same = values.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_same, "noise should disperse readings: {values:?}");
        assert_eq!(pmu.measurements_taken(), 10);
    }

    #[test]
    fn cold_start_policy_repeats_misses() {
        let mut pmu = quiet_pmu();
        let g = group(&[HpcEvent::CacheMisses]);
        let mut wl = |p: &mut dyn Probe| {
            for i in 0..64u64 {
                p.load(i * 64, 0x40);
            }
        };
        let a = pmu.measure(&g, &mut wl).unwrap();
        let b = pmu.measure(&g, &mut wl).unwrap();
        assert_eq!(
            a.value(HpcEvent::CacheMisses),
            b.value(HpcEvent::CacheMisses)
        );
        assert!(a.value(HpcEvent::CacheMisses).unwrap() > 0);
    }

    #[test]
    fn warm_policy_reduces_misses() {
        let mut pmu = SimulatedPmu::new(
            SimPmuConfig {
                noise: NoiseConfig::quiet(),
                warmup: WarmupPolicy::Warm,
                ..SimPmuConfig::default()
            },
            1,
        )
        .unwrap();
        let g = group(&[HpcEvent::CacheMisses]);
        let mut wl = |p: &mut dyn Probe| {
            for i in 0..64u64 {
                p.load(i * 64, 0x40);
            }
        };
        let cold = pmu.measure(&g, &mut wl).unwrap();
        let warm = pmu.measure(&g, &mut wl).unwrap();
        assert!(
            warm.value(HpcEvent::CacheMisses).unwrap() < cold.value(HpcEvent::CacheMisses).unwrap(),
            "second run should hit warm caches"
        );
    }

    #[test]
    fn multiplexed_group_scales_back() {
        let mut pmu = quiet_pmu();
        // 12 events on a 4-counter budget.
        let g = CounterGroup::new(HpcEvent::ALL.to_vec(), 4).unwrap();
        let m = pmu
            .measure(&g, &mut |p| {
                p.alu(30_000);
            })
            .unwrap();
        let insns = m.value(HpcEvent::Instructions).unwrap();
        assert!(
            (insns as i64 - 30_000).abs() <= 30,
            "scaling should approximately recover the total: {insns}"
        );
        assert!(m.readings.iter().all(|r| r.was_multiplexed()));
    }

    #[test]
    fn measure_layers_segments_the_stream() {
        let mut pmu = quiet_pmu();
        let windows = pmu.measure_layers(&mut |p| {
            p.alu(100);
            p.layer_boundary(1);
            for i in 0..50u64 {
                p.load(i * 64, 0x40);
            }
            p.layer_boundary(2);
            p.alu(25);
        });
        assert_eq!(windows.len(), 3, "k boundaries => k + 1 windows");
        assert_eq!(windows[0].instructions, 100);
        assert_eq!(windows[0].loads, 0);
        assert_eq!(windows[1].loads, 50);
        assert_eq!(windows[2].instructions, 25);
    }

    #[test]
    fn measure_layers_without_boundaries_is_one_whole_window() {
        let g = group(&[HpcEvent::Instructions, HpcEvent::Branches]);
        let mut wl = |p: &mut dyn Probe| {
            for i in 0..100u64 {
                p.load(i * 64, 0x40);
                p.branch(0x40, i % 2 == 0);
            }
            p.alu(500);
        };
        let whole = quiet_pmu().measure(&g, &mut wl).unwrap();
        let windows = quiet_pmu().measure_layers(&mut wl);
        assert_eq!(windows.len(), 1);
        assert_eq!(
            Some(windows[0].instructions),
            whole.value(HpcEvent::Instructions)
        );
        assert_eq!(Some(windows[0].branches), whole.value(HpcEvent::Branches));
    }

    #[test]
    fn window_tracks_cycles() {
        let mut pmu = quiet_pmu();
        let g = group(&[HpcEvent::Cycles]);
        let small = pmu.measure(&g, &mut |p| p.alu(1_000)).unwrap();
        let large = pmu.measure(&g, &mut |p| p.alu(1_000_000)).unwrap();
        assert!(large.window_ns > small.window_ns * 100);
    }
}
