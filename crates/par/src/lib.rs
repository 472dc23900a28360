//! # scnn-par
//!
//! A zero-dependency scoped worker pool for the `scnn` workspace.
//!
//! The paper's evaluator protocol is embarrassingly parallel: each input
//! category's HPC campaign is independent, every cell of the pairwise
//! t-test matrix is independent, and every sample gradient of a training
//! minibatch is independent. This crate provides the one execution
//! primitive those layers share — [`Pool::par_map`] — built on
//! [`std::thread::scope`] with a fixed-size work deque, so the hermetic
//! build stays free of external crates.
//!
//! # Determinism contract
//!
//! `par_map` returns results **in item order**, whatever the thread
//! count, and [`Threads::Count`]`(1)` (or a single-item input) runs the
//! closure on the caller's thread with no pool machinery at all. Callers
//! keep bit-identical output across thread counts by making each item's
//! work self-contained (own RNG stream, own scratch state) and doing any
//! floating-point reduction over the *ordered* result vector.
//!
//! # Examples
//!
//! ```
//! use scnn_par::{Pool, Threads};
//!
//! let pool = Pool::new(Threads::Count(4));
//! let squares = pool.par_map((0..8u64).collect(), |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// How many worker threads a parallel stage may use.
///
/// The default is [`Threads::Auto`], which resolves to the machine's
/// available parallelism. `Threads::Count(1)` requests exact sequential
/// execution on the caller's thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// Use [`std::thread::available_parallelism`] (falling back to 1 when
    /// the OS cannot report it).
    #[default]
    Auto,
    /// Use exactly this many workers; `0` is normalised to `1`.
    Count(usize),
}

impl Threads {
    /// The resolved worker count (always ≥ 1).
    pub fn get(self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            Threads::Count(n) => n.max(1),
        }
    }

    /// True when this setting resolves to a single worker.
    pub fn is_sequential(self) -> bool {
        self.get() == 1
    }
}

impl From<usize> for Threads {
    /// `0` maps to [`Threads::Auto`]; anything else to that exact count.
    fn from(n: usize) -> Self {
        if n == 0 {
            Threads::Auto
        } else {
            Threads::Count(n)
        }
    }
}

impl std::str::FromStr for Threads {
    type Err = String;

    /// Parses `"auto"` or a worker count (`"0"` also meaning auto).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("auto") {
            return Ok(Threads::Auto);
        }
        s.parse::<usize>()
            .map(Threads::from)
            .map_err(|_| format!("invalid thread count {s:?} (expected a number or \"auto\")"))
    }
}

impl std::fmt::Display for Threads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Threads::Auto => write!(f, "auto"),
            Threads::Count(n) => write!(f, "{n}"),
        }
    }
}

/// A scoped worker pool.
///
/// The pool is a configuration object, not a set of live threads: each
/// [`Pool::par_map`]/[`Pool::par_for_each`] call opens one
/// [`std::thread::scope`], drains a fixed-size deque of jobs, and joins
/// every worker before returning. A panic in any job propagates to the
/// caller after all workers have stopped, so no thread outlives the call
/// even on the unwind path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pool {
    threads: Threads,
    /// Job-count floor below which the pool runs sequentially even with
    /// multiple workers configured; `0` (the default) never bypasses.
    min_jobs: usize,
}

/// Locks `m`, treating a poisoned mutex as still usable: jobs run outside
/// the critical sections, so a panicking job cannot leave the shared
/// queue or result slots in a torn state.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// Creates a pool with the given thread setting.
    pub fn new(threads: Threads) -> Self {
        Pool {
            threads,
            min_jobs: 0,
        }
    }

    /// Runs sequentially whenever a call has fewer than `min_jobs` items.
    ///
    /// Spinning up a [`std::thread::scope`] costs hundreds of
    /// microseconds; for a handful of cheap jobs that overhead dwarfs the
    /// work (the evaluator's small t-test matrices ran 6× *slower*
    /// parallel than sequential). The bypass cannot change results — the
    /// sequential path is the same closure over the same ordered items —
    /// so the bit-identical contract holds by construction.
    pub fn with_min_jobs(mut self, min_jobs: usize) -> Self {
        self.min_jobs = min_jobs;
        self
    }

    /// The resolved worker count this pool will use.
    pub fn workers(&self) -> usize {
        self.threads.get()
    }

    /// Applies `f` to every item, returning the results **in item
    /// order**.
    ///
    /// With a single worker (or a single item) the closure runs on the
    /// calling thread — exact sequential behaviour. Otherwise workers
    /// pull `(index, item)` jobs off a shared deque and write each result
    /// into its slot, so scheduling order never affects output order.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any job after all workers have joined.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        // Telemetry is observation-only: counters and the queue-occupancy
        // histogram never influence scheduling, and results are still
        // assembled in item order, so output stays bit-identical whether
        // a recorder is installed or not.
        scnn_obs::counter_add("par.tasks", n as u64);
        let workers = self.workers().min(n);
        if workers <= 1 || n < self.min_jobs {
            if workers > 1 {
                // Only count bypasses where the pool *would* have run.
                scnn_obs::counter_add("par.seq_bypass", 1);
            }
            return items.into_iter().map(f).collect();
        }
        scnn_obs::counter_add("par.pool_runs", 1);

        let queue: Mutex<VecDeque<(usize, T)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
        let observing = scnn_obs::enabled();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let (job, remaining) = {
                        let mut queue = lock_ignore_poison(&queue);
                        let job = queue.pop_front();
                        (job, queue.len())
                    };
                    let Some((index, item)) = job else { break };
                    if observing {
                        scnn_obs::counter_add("par.dispatches", 1);
                        scnn_obs::histogram_record("par.queue_occupancy", remaining as f64);
                    }
                    let result = f(item);
                    lock_ignore_poison(&slots)[index] = Some(result);
                });
            }
        });

        slots
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|slot| slot.expect("every job filled its slot"))
            .collect()
    }

    /// Applies `f` to every item for its side effects only.
    ///
    /// Same scheduling and panic semantics as [`Pool::par_map`].
    pub fn par_for_each<T, F>(&self, items: Vec<T>, f: F)
    where
        T: Send,
        F: Fn(T) + Sync,
    {
        self.par_map(items, f);
    }

    /// Streams jobs from `source` through a bounded worker fleet,
    /// calling `done` once per completed job — the long-running-service
    /// primitive behind `repro serve`.
    ///
    /// Unlike [`Pool::par_map`], the job set is not known up front and
    /// there is no barrier: the calling thread keeps pulling from
    /// `source` (typically a blocking reader over stdin or a socket)
    /// and enqueueing, while workers drain the queue concurrently. When
    /// `source` returns `None` the queue is closed, the workers finish
    /// whatever remains, and the call returns. Every job is delivered
    /// to exactly one worker and `done` fires exactly once per job —
    /// the zero-lost / zero-duplicated accounting is returned in
    /// [`StreamStats`] and pinned by tests.
    ///
    /// `done` runs on whichever worker finished the job, in completion
    /// order, concurrently with other workers' `done` calls — callers
    /// that need exclusive access to a sink must synchronise it (a
    /// `Mutex<impl Write>` suffices). With a single resolved worker the
    /// whole stream runs on the calling thread: read one, work one,
    /// done one — exact sequential behaviour, deterministic output
    /// order.
    ///
    /// Telemetry: `par.stream_jobs` counts submissions and the
    /// `par.stream_depth` histogram records the queue depth observed at
    /// each enqueue (the service's queue-depth signal).
    ///
    /// # Panics
    ///
    /// A panicking job or `done` unwinds through the scope join and
    /// poisons the whole stream, like [`Pool::par_map`]. Long-running
    /// services should catch panics inside `work` and turn them into
    /// error results instead.
    pub fn stream<T, R, F, D>(
        &self,
        mut source: impl FnMut() -> Option<T>,
        work: F,
        done: D,
    ) -> StreamStats
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
        D: Fn(R) + Sync,
    {
        let workers = self.workers();
        if workers <= 1 {
            let mut stats = StreamStats::default();
            while let Some(item) = source() {
                scnn_obs::counter_add("par.stream_jobs", 1);
                stats.submitted += 1;
                done(work(item));
                stats.completed += 1;
            }
            return stats;
        }

        struct Shared<T> {
            queue: VecDeque<T>,
            closed: bool,
            max_depth: usize,
        }
        let shared = Mutex::new(Shared::<T> {
            queue: VecDeque::new(),
            closed: false,
            max_depth: 0,
        });
        let ready = Condvar::new();
        let completed = AtomicU64::new(0);
        let mut submitted = 0u64;

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let item = {
                        let mut guard = lock_ignore_poison(&shared);
                        loop {
                            if let Some(item) = guard.queue.pop_front() {
                                break Some(item);
                            }
                            if guard.closed {
                                break None;
                            }
                            guard = ready.wait(guard).unwrap_or_else(PoisonError::into_inner);
                        }
                    };
                    let Some(item) = item else { break };
                    done(work(item));
                    completed.fetch_add(1, Ordering::Relaxed);
                });
            }

            while let Some(item) = source() {
                scnn_obs::counter_add("par.stream_jobs", 1);
                submitted += 1;
                let depth = {
                    let mut guard = lock_ignore_poison(&shared);
                    guard.queue.push_back(item);
                    guard.max_depth = guard.max_depth.max(guard.queue.len());
                    guard.queue.len()
                };
                scnn_obs::histogram_record("par.stream_depth", depth as f64);
                ready.notify_one();
            }
            lock_ignore_poison(&shared).closed = true;
            ready.notify_all();
        });

        StreamStats {
            submitted,
            completed: completed.load(Ordering::Relaxed),
            max_queue_depth: shared
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .max_depth,
        }
    }
}

/// Accounting from one [`Pool::stream`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Jobs pulled from the source and enqueued.
    pub submitted: u64,
    /// Jobs a worker finished (`done` invocations). Equal to
    /// `submitted` on every non-panicking run — zero lost, zero
    /// duplicated.
    pub completed: u64,
    /// Highest queue depth observed at any enqueue (0 when every job
    /// was picked up before the next arrived, or on the sequential
    /// path).
    pub max_queue_depth: usize,
}

/// One-shot convenience: [`Pool::par_map`] without naming a pool.
pub fn par_map<T, R, F>(threads: Threads, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    Pool::new(threads).par_map(items, f)
}

/// One-shot convenience: [`Pool::par_for_each`] without naming a pool.
pub fn par_for_each<T, F>(threads: Threads, items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    Pool::new(threads).par_for_each(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_item_order() {
        for threads in [Threads::Count(1), Threads::Count(2), Threads::Count(7)] {
            let pool = Pool::new(threads);
            let out = pool.par_map((0..100usize).collect(), |x| x * 3);
            assert_eq!(
                out,
                (0..100).map(|x| x * 3).collect::<Vec<_>>(),
                "{threads}"
            );
        }
    }

    #[test]
    fn single_worker_matches_parallel_exactly() {
        // Same float work, different thread counts: bit-identical output.
        let work = |x: usize| ((x as f64).sqrt() + 1.0).ln();
        let seq = Pool::new(Threads::Count(1)).par_map((0..500).collect(), work);
        let par = Pool::new(Threads::Count(4)).par_map((0..500).collect(), work);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(Threads::Count(4));
        let empty: Vec<u32> = pool.par_map(Vec::new(), |x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(pool.par_map(vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn for_each_visits_every_item_once() {
        let hits = AtomicUsize::new(0);
        Pool::new(Threads::Count(3)).par_for_each((0..64).collect::<Vec<u32>>(), |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn threads_resolution() {
        assert_eq!(Threads::Count(3).get(), 3);
        assert_eq!(Threads::Count(0).get(), 1, "0 normalises to 1");
        assert!(Threads::Auto.get() >= 1);
        assert!(Threads::Count(1).is_sequential());
        assert_eq!(Threads::from(0), Threads::Auto);
        assert_eq!(Threads::from(5), Threads::Count(5));
        assert_eq!("auto".parse::<Threads>().unwrap(), Threads::Auto);
        assert_eq!("6".parse::<Threads>().unwrap(), Threads::Count(6));
        assert!("six".parse::<Threads>().is_err());
        assert_eq!(Threads::Count(2).to_string(), "2");
        assert_eq!(Threads::Auto.to_string(), "auto");
    }

    #[test]
    fn min_jobs_bypass_is_sequential_and_identical() {
        let work = |x: usize| ((x as f64) * 0.5).sin();
        let plain = Pool::new(Threads::Count(4));
        let bypassing = plain.with_min_jobs(64);

        // 32 < 64: every job runs on the caller's thread — observable
        // directly via thread ids, with no reliance on the global
        // recorder (other tests share it concurrently).
        let caller = std::thread::current().id();
        let small = bypassing.par_map((0..32).collect(), |x| {
            assert_eq!(std::thread::current().id(), caller, "bypass must not spawn");
            work(x)
        });

        // 64 >= 64: the pool engages again (some job lands off-thread).
        let off_thread = std::sync::atomic::AtomicBool::new(false);
        let large = bypassing.par_map((0..64).collect(), |x| {
            if std::thread::current().id() != caller {
                off_thread.store(true, Ordering::SeqCst);
            }
            work(x)
        });
        assert!(
            off_thread.load(Ordering::SeqCst),
            "pool should re-engage at min_jobs"
        );

        // Either way, results match the plain pool bit-for-bit.
        assert_eq!(small, plain.par_map((0..32).collect(), work));
        assert_eq!(large, plain.par_map((0..64).collect(), work));
    }

    #[test]
    fn panic_in_worker_propagates_and_pool_survives() {
        let pool = Pool::new(Threads::Count(4));
        let result = std::panic::catch_unwind(|| {
            pool.par_map((0..32usize).collect(), |x| {
                if x == 17 {
                    panic!("job 17 exploded");
                }
                x
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
        // The scope joined every worker on the way out; the pool value is
        // reusable for the next call.
        let out = pool.par_map((0..8usize).collect(), |x| x + 1);
        assert_eq!(out, (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn panic_on_sequential_path_propagates_too() {
        let pool = Pool::new(Threads::Count(1));
        let result = std::panic::catch_unwind(|| pool.par_map(vec![0u8], |_| panic!("seq")));
        assert!(result.is_err());
    }

    #[test]
    fn pool_metrics_flow_to_an_installed_recorder() {
        // Other tests in this binary may run par_map concurrently and
        // also feed the global recorder, so assert lower bounds only.
        let recorder = std::sync::Arc::new(scnn_obs::Recorder::new());
        scnn_obs::install(recorder.clone());
        let out = Pool::new(Threads::Count(3)).par_map((0..16usize).collect(), |x| x + 1);
        scnn_obs::uninstall();
        assert_eq!(out, (1..17).collect::<Vec<_>>());
        let snap = recorder.snapshot();
        assert!(snap.counter("par.tasks").unwrap_or(0) >= 16);
        assert!(snap.counter("par.pool_runs").unwrap_or(0) >= 1);
        assert!(snap.counter("par.dispatches").unwrap_or(0) >= 16);
        let occupancy = snap.histogram("par.queue_occupancy").unwrap();
        assert!(occupancy.count >= 16);
        assert_eq!(occupancy.min, Some(0.0), "the last pop sees an empty queue");
    }

    #[test]
    fn stream_delivers_every_job_exactly_once() {
        for threads in [Threads::Count(1), Threads::Count(3), Threads::Count(8)] {
            let total = 5_000usize;
            let mut next = 0usize;
            let seen = Mutex::new(vec![0u32; total]);
            let stats = Pool::new(threads).stream(
                || {
                    let i = next;
                    next += 1;
                    (i < total).then_some(i)
                },
                |i| i,
                |i| lock_ignore_poison(&seen)[i] += 1,
            );
            assert_eq!(stats.submitted, total as u64, "{threads}");
            assert_eq!(stats.completed, total as u64, "zero lost ({threads})");
            let seen = seen.into_inner().unwrap();
            assert!(
                seen.iter().all(|&n| n == 1),
                "zero duplicated ({threads}): {:?}",
                seen.iter()
                    .enumerate()
                    .filter(|(_, &n)| n != 1)
                    .take(5)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn stream_single_worker_is_sequential_and_ordered() {
        let caller = std::thread::current().id();
        let mut next = 0usize;
        let order = Mutex::new(Vec::new());
        let stats = Pool::new(Threads::Count(1)).stream(
            || {
                let i = next;
                next += 1;
                (i < 64).then_some(i)
            },
            |i| {
                assert_eq!(std::thread::current().id(), caller, "no pool machinery");
                i * 2
            },
            |r| lock_ignore_poison(&order).push(r),
        );
        assert_eq!(stats.submitted, 64);
        assert_eq!(stats.completed, 64);
        assert_eq!(stats.max_queue_depth, 0, "sequential path never queues");
        assert_eq!(
            order.into_inner().unwrap(),
            (0..64).map(|i| i * 2).collect::<Vec<_>>(),
            "single-worker completion order is submission order"
        );
    }

    #[test]
    fn stream_overlaps_reading_and_working() {
        // A slow consumer-side job mix: the source produces a burst, the
        // workers drain it; the queue must actually be exercised.
        let total = 256usize;
        let mut next = 0usize;
        let sum = AtomicU64::new(0);
        let stats = Pool::new(Threads::Count(4)).stream(
            || {
                let i = next;
                next += 1;
                (i < total).then_some(i as u64)
            },
            |i| i + 1,
            |r| {
                sum.fetch_add(r, Ordering::Relaxed);
            },
        );
        assert_eq!(stats.completed, total as u64);
        assert_eq!(
            sum.load(Ordering::Relaxed),
            (1..=total as u64).sum::<u64>(),
            "every result accounted for exactly once"
        );
    }

    #[test]
    fn stream_empty_source_returns_immediately() {
        let stats = Pool::new(Threads::Count(4)).stream(|| None::<u8>, |x| x, |_| {});
        assert_eq!(stats, StreamStats::default());
    }

    #[test]
    #[ignore = "stress test: run explicitly with `cargo test -- --ignored`"]
    fn stress_eight_workers() {
        let pool = Pool::new(Threads::Count(8));
        for round in 0..50 {
            let items: Vec<u64> = (0..10_000).collect();
            let out = pool.par_map(items, |x| x.wrapping_mul(0x9E37_79B9).rotate_left(13));
            let expected: Vec<u64> = (0..10_000)
                .map(|x: u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13))
                .collect();
            assert_eq!(out, expected, "round {round}");
        }
    }
}
