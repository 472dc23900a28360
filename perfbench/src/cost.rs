//! Robust throughput from per-op timings.
//!
//! Neighbouring load on a shared host slows whole stretches of a run, so
//! the run's wall clock alone, or a quantile over a mix of unlike
//! operations, drifts from run to run. Ops are grouped into classes of
//! like work (same dataset, preset, arm, measurement call and image);
//! each class gets one robust per-op cost, and the combined rate is
//!
//! ```text
//! rate = Σ ops  /  Σ_class (ops in class × robust cost of class)
//! ```
//!
//! so every class is weighted by how often the workload runs it, and a
//! burst of slow samples in one class moves only that class's cost, and
//! only as far as the estimator lets it.

/// Per-class timing samples of one run.
#[derive(Debug, Clone, Default)]
pub struct OpCosts {
    classes: Vec<Vec<f64>>,
}

impl OpCosts {
    /// An empty table with `classes` op classes.
    pub fn new(classes: usize) -> OpCosts {
        OpCosts {
            classes: vec![Vec::new(); classes],
        }
    }

    /// Records one op of `class` that took `secs` seconds.
    pub fn record(&mut self, class: usize, secs: f64) {
        self.classes[class].push(secs);
    }

    /// Ops recorded over all classes.
    pub fn ops(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// The robust per-op cost of `class` in seconds (0 when empty).
    pub fn cost(&self, class: usize) -> f64 {
        robust_cost(&self.classes[class])
    }

    /// Σ over classes of ops × robust cost: the seconds the run's op mix
    /// takes at each class's robust cost.
    pub fn robust_seconds(&self) -> f64 {
        self.classes
            .iter()
            .map(|s| s.len() as f64 * robust_cost(s))
            .sum()
    }

    /// Ops per second at robust per-class costs.
    pub fn rate(&self) -> f64 {
        self.ops() as f64 / self.robust_seconds()
    }

    /// Ops per second by the summed raw op times — what a wall clock
    /// around the loop would report. Kept for comparison only.
    pub fn wall_rate(&self) -> f64 {
        let total: f64 = self.classes.iter().flatten().sum();
        self.ops() as f64 / total
    }
}

/// The robust cost of one class: the interquartile mean of its samples
/// (the mean of all of them when fewer than four).
///
/// Dropping the slowest quarter leaves out any burst that hits fewer
/// than a quarter of the class's samples; dropping the fastest quarter
/// keeps a few lucky samples from setting the cost; averaging the
/// middle half uses more of the run than a median does.
pub fn robust_cost(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = if sorted.len() < 4 {
        0
    } else {
        sorted.len() / 4
    };
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two classes, one op costing 1 ms and one costing 11 ms, run
    /// equally often: the analytic rate is 2 ops per 12 ms.
    fn mix(n: usize) -> OpCosts {
        let mut costs = OpCosts::new(2);
        for _ in 0..n {
            costs.record(0, 0.001);
            costs.record(1, 0.011);
        }
        costs
    }

    #[test]
    fn combined_rate_equals_the_analytic_rate() {
        let costs = mix(20);
        let analytic = 2.0 / 0.012;
        assert!((costs.rate() - analytic).abs() < 1e-9 * analytic);
        assert!((costs.wall_rate() - analytic).abs() < 1e-9 * analytic);
        assert_eq!(costs.ops(), 40);
    }

    #[test]
    fn uneven_class_counts_weigh_by_ops() {
        let mut costs = OpCosts::new(2);
        for _ in 0..30 {
            costs.record(0, 0.001);
        }
        for _ in 0..10 {
            costs.record(1, 0.011);
        }
        let analytic = 40.0 / (30.0 * 0.001 + 10.0 * 0.011);
        assert!((costs.rate() - analytic).abs() < 1e-9 * analytic);
    }

    #[test]
    fn slow_burst_moves_the_robust_rate_less_than_the_wall_rate() {
        let clean = mix(20);
        let mut burst = mix(20);
        // A neighbour stalls the expensive class: 5 of its 20 samples
        // run 3x slower.
        for s in burst.classes[1].iter_mut().take(5) {
            *s *= 3.0;
        }
        let robust_shift = (burst.rate() / clean.rate() - 1.0).abs();
        let wall_shift = (burst.wall_rate() / clean.wall_rate() - 1.0).abs();
        assert!(wall_shift > 0.2, "the burst must be visible: {wall_shift}");
        assert!(
            robust_shift < wall_shift / 10.0,
            "robust {robust_shift} vs wall {wall_shift}"
        );
    }

    #[test]
    fn robust_cost_is_the_interquartile_mean_and_small_classes_use_all() {
        assert_eq!(robust_cost(&[]), 0.0);
        assert_eq!(robust_cost(&[2.0, 4.0]), 3.0);
        assert_eq!(robust_cost(&[5.0, 1.0, 9.0, 3.0]), 4.0);
        assert_eq!(
            robust_cost(&[5.0, 1.0, 9.0, 3.0, 100.0, 7.0, 0.5, 8.0]),
            5.75
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
