//! The campaign engine: one victim model, many ordered arms.
//!
//! The paper's method is a single experiment — train one CNN, take HPC
//! readings per category, run pairwise t-tests. Every multi-arm study
//! in this crate (the uarch [`sweep`](crate::sweep), the extraction
//! campaign, the countermeasure [`frontier`](crate::frontier), and the
//! `repro` ablations) repeats that experiment over *arms*: platforms,
//! countermeasures, noise levels. A [`Campaign`] is that repetition,
//! written once:
//!
//! - **Model once.** [`Campaign::new`] obtains the victim model through
//!   the one model path, [`obtain_model`] (restore from the artifact
//!   cache, else train and store), before any arm runs, unless the
//!   caller already holds it. Every arm whose [`artifact::model_key`]
//!   matches reuses it in memory, with or without a cache; an arm with
//!   a different model (another architecture) trains its own, through
//!   the same path.
//! - **Ordered arms.** [`map_arms`] runs arms as coarse-grain jobs on a
//!   [`Pool`] and returns results in arm order, or the error of the
//!   earliest failing arm — never "whichever failed first on the clock".
//! - **Content-addressed seeds.** Nothing an arm computes depends on its
//!   position or on which worker ran it, so outcomes are bit-identical
//!   at every thread count and cold-vs-warm cache state.

use crate::artifact;
use crate::attack::AttackError;
use crate::pipeline::{Experiment, ExperimentConfig, ExperimentError, ExperimentOutcome};
use scnn_cache::{ArtifactCache, CacheKey};
use scnn_data::Dataset;
use scnn_nn::train::{accuracy, train, TrainReport};
use scnn_nn::Network;
use scnn_par::{Pool, Threads};
use std::borrow::Cow;

/// A trained victim: the network, its training report and its held-out
/// accuracy — exactly what the model artifact stores.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The trained network.
    pub network: Network,
    /// The training run's report.
    pub train_report: TrainReport,
    /// Held-out classification accuracy.
    pub test_accuracy: f64,
}

/// Restores the model of `cfg` from `cache`; `None` on a miss, an
/// undecodable artifact, or no cache.
pub(crate) fn load_model(
    cfg: &ExperimentConfig,
    cache: Option<&ArtifactCache>,
) -> Option<TrainedModel> {
    let payload = cache?.load(artifact::MODEL_KIND, artifact::model_key(cfg))?;
    let (network, train_report, test_accuracy) = artifact::decode_model(&payload)?;
    Some(TrainedModel {
        network,
        train_report,
        test_accuracy,
    })
}

/// Trains the model of `cfg`, scores it on `test_set`, and stores it in
/// `cache`. Returns the model and whether the store succeeded.
pub(crate) fn train_model(
    cfg: &ExperimentConfig,
    test_set: &Dataset,
    cache: Option<&ArtifactCache>,
) -> Result<(TrainedModel, bool), ExperimentError> {
    let dataset_span = scnn_obs::Span::enter("pipeline.dataset");
    let train_set = cfg.generate_dataset(cfg.train_per_class, cfg.seed)?;
    drop(dataset_span);
    let train_span = scnn_obs::Span::enter("pipeline.train");
    let mut network = cfg.build_model();
    let train_report = train(&mut network, &train_set.to_samples(), &cfg.train)?;
    let test_accuracy = accuracy(&mut network, &test_set.to_samples())?;
    drop(train_span);
    let stored = cache.is_some_and(|c| {
        let payload = artifact::encode_model(&network, &train_report, test_accuracy);
        c.store(artifact::MODEL_KIND, artifact::model_key(cfg), &payload)
            .is_ok()
    });
    let model = TrainedModel {
        network,
        train_report,
        test_accuracy,
    };
    Ok((model, stored))
}

/// The one model path: restores the model of `cfg` from `cache`, or
/// trains and stores it (on `cfg`'s threads), under a `campaign.model`
/// span. Returns the model and whether it was a cache hit. Same key,
/// same seeds, same bytes as the pipeline's own run.
///
/// # Errors
///
/// Dataset generation or training failures.
pub fn obtain_model(
    cfg: &ExperimentConfig,
    cache: Option<&ArtifactCache>,
) -> Result<(TrainedModel, bool), ExperimentError> {
    let _span = scnn_obs::Span::enter("campaign.model");
    if let Some(model) = load_model(cfg, cache) {
        return Ok((model, true));
    }
    let dataset_span = scnn_obs::Span::enter("pipeline.dataset");
    let test_set = cfg.generate_dataset(cfg.test_per_class, cfg.seed ^ 0xFACE)?;
    drop(dataset_span);
    Ok((train_model(cfg, &test_set, cache)?.0, false))
}

/// One campaign: the victim model of a base configuration, shared by
/// every arm with the same model key, and the optional artifact cache.
#[derive(Debug)]
pub struct Campaign<'a> {
    model: Cow<'a, TrainedModel>,
    key: CacheKey,
    cache: Option<&'a ArtifactCache>,
}

impl<'a> Campaign<'a> {
    /// A campaign on `shared`, the caller's model of `base`'s model key,
    /// or else on `base`'s model obtained once through [`obtain_model`],
    /// so concurrent arms never race to train it.
    ///
    /// # Errors
    ///
    /// Dataset generation or training failures.
    pub fn new(
        base: &ExperimentConfig,
        cache: Option<&'a ArtifactCache>,
        shared: Option<&'a TrainedModel>,
    ) -> Result<Campaign<'a>, ExperimentError> {
        let model = match shared {
            Some(model) => Cow::Borrowed(model),
            None => Cow::Owned(obtain_model(base, cache)?.0),
        };
        Ok(Campaign {
            model,
            key: artifact::model_key(base),
            cache,
        })
    }

    /// The shared victim model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Runs one arm's full experiment, through the cache when there is
    /// one, on the shared model when `cfg`'s model key matches it. With
    /// a cache, a shared model counts as a model hit.
    ///
    /// # Errors
    ///
    /// Whatever the experiment returns.
    pub fn run(&self, cfg: ExperimentConfig) -> Result<ExperimentOutcome, ExperimentError> {
        let shared = (artifact::model_key(&cfg) == self.key).then_some(&*self.model);
        Experiment::new(cfg).run_with(self.cache, shared)
    }
}

/// Runs `f(index, arm)` for every arm as an ordered coarse-grain job on
/// a [`Pool`] with `threads` workers, each under
/// `Span::enter_indexed(span, index)`. Every arm runs; results come
/// back in arm order.
///
/// # Errors
///
/// The error of the earliest failing arm in arm order, whichever arm
/// failed first on the clock.
pub fn map_arms<A, T, E, F>(
    threads: Threads,
    span: &'static str,
    arms: Vec<A>,
    f: F,
) -> Result<Vec<T>, E>
where
    A: Send,
    T: Send,
    E: Send,
    F: Fn(usize, A) -> Result<T, E> + Sync,
{
    let jobs: Vec<(usize, A)> = arms.into_iter().enumerate().collect();
    Pool::new(threads)
        .par_map(jobs, |(index, arm)| {
            let _span = scnn_obs::Span::enter_indexed(span, index as u64);
            f(index, arm)
        })
        .into_iter()
        .collect()
}

/// Profiling traces out of a corpus of `samples`: `samples × fraction`
/// rounded, at least 1 and at most `samples` (the rest is held out).
///
/// # Errors
///
/// [`AttackError::InvalidProfileFraction`] when `fraction` lies outside
/// `(0, 1)`, [`AttackError::EmptyCorpus`] when there is no trace to
/// profile.
pub(crate) fn profile_split(samples: usize, fraction: f64) -> Result<usize, AttackError> {
    if !(fraction.is_finite() && fraction > 0.0 && fraction < 1.0) {
        return Err(AttackError::InvalidProfileFraction { fraction });
    }
    if samples == 0 {
        return Err(AttackError::EmptyCorpus);
    }
    Ok(((samples as f64 * fraction).round() as usize).clamp(1, samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::mpsc;
    use std::sync::Mutex;

    #[test]
    fn arms_come_back_in_arm_order() {
        let arms: Vec<u64> = (0..9).collect();
        let want: Vec<(usize, u64)> = (0..9).map(|a| (a as usize, a * a)).collect();
        let sequential = map_arms(Threads::Count(1), "test.arm", arms.clone(), |i, a| {
            Ok::<_, ()>((i, a * a))
        });
        assert_eq!(sequential, Ok(want.clone()));
        // On a pool, arm 0 finishes last: it waits for arm 8.
        let (done, wait) = mpsc::channel();
        let wait = Mutex::new(wait);
        let pooled = map_arms(Threads::Count(4), "test.arm", arms, |i, a| {
            match i {
                0 => wait
                    .lock()
                    .expect("one waiter")
                    .recv()
                    .expect("arm 8 signals"),
                8 => done.send(()).expect("arm 0 waits"),
                _ => {}
            }
            Ok::<_, ()>((i, a * a))
        });
        assert_eq!(pooled, Ok(want));
    }

    #[test]
    fn the_earliest_failing_arm_wins() {
        let fail = |i: usize| Err::<usize, String>(format!("arm {i}"));
        let sequential = map_arms(Threads::Count(1), "test.arm", vec![(); 8], |i, ()| {
            if i == 2 || i == 5 {
                fail(i)
            } else {
                Ok(i)
            }
        });
        assert_eq!(sequential, Err("arm 2".to_owned()));
        // On a pool, arm 5 fails first on the clock: arm 2 waits for it.
        let (failed, wait) = mpsc::channel();
        let wait = Mutex::new(wait);
        let pooled = map_arms(
            Threads::Count(4),
            "test.arm",
            vec![(); 8],
            |i, ()| match i {
                2 => {
                    wait.lock()
                        .expect("one waiter")
                        .recv()
                        .expect("arm 5 signals");
                    fail(i)
                }
                5 => {
                    let err = fail(i);
                    failed.send(()).expect("arm 2 waits");
                    err
                }
                _ => Ok(i),
            },
        );
        assert_eq!(pooled, Err("arm 2".to_owned()));
    }

    #[test]
    fn profile_split_rounds_clamps_and_rejects() {
        assert_eq!(profile_split(8, 0.75), Ok(6));
        assert_eq!(profile_split(8, 0.6), Ok(5));
        assert_eq!(profile_split(1, 0.1), Ok(1), "at least one trace");
        assert_eq!(profile_split(2, 0.9), Ok(2), "at most the corpus");
        assert_eq!(profile_split(0, 0.75), Err(AttackError::EmptyCorpus));
        for bad in [0.0, 1.0, -0.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    profile_split(8, bad),
                    Err(AttackError::InvalidProfileFraction { .. })
                ),
                "fraction {bad} must be rejected"
            );
        }
    }
}
