//! Threads=1 vs threads=N comparison for the parallel collection and
//! evaluation layer, emitting `BENCH_parallel.json` at the repo root.
//!
//! Two properties are measured on a paper-shaped campaign:
//!
//! - **Determinism** (the headline): the observations and the leakage
//!   report must be bit-identical at every thread count. This is asserted,
//!   not just reported — a violation aborts the bench.
//! - **Wall-clock**: per-run times at 1 and `N` workers. The JSON records
//!   the host's available parallelism alongside the speedup, because on a
//!   single-core runner the honest speedup is ~1×.
//!
//! Evaluation is timed twice: on the campaign's own tiny t-test matrix
//! (`evaluate_ms`) where the evaluator's sequential bypass now avoids
//! paying pool spin-up for microseconds of work (historically a 6×
//! parallel *slowdown*), and on a big synthetic matrix
//! (`evaluate_big_ms`) past the bypass cutoff, where the pool actually
//! engages.
//!
//! Two single-thread arms round out the picture: `gemm` reports the
//! blocked matmul kernel's throughput (MFLOP/s), and `batch_infer_ms`
//! measures batched inference against the per-sample loop on one thread
//! — the speedup that batching must deliver *before* any parallelism,
//! with the row-wise bitwise-equality contract asserted in passing.

use std::collections::BTreeMap;
use std::time::Instant;

use scnn_bench::harness::black_box;
use scnn_core::collect::{category_seed, collect_campaign, CategoryObservations, CollectionConfig};
use scnn_core::evaluator::{Evaluator, EvaluatorConfig};
use scnn_data::mnist_synth::{generate, MnistSynthConfig};
use scnn_hpc::{HpcEvent, SimPmuConfig, SimulatedPmu};
use scnn_nn::models;
use scnn_par::Threads;
use scnn_tensor::ops::{self, GemmScratch};
use scnn_tensor::Tensor;

/// Worker count for the "parallel" arm of the comparison.
const PAR_WORKERS: usize = 4;
/// Timed repetitions per arm; the best run is reported, matching the
/// least-noise convention of the in-tree harness.
const REPS: usize = 5;

fn best_of<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let value = black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(value);
    }
    (best, out.expect("REPS > 0"))
}

fn main() {
    let ds = generate(
        &MnistSynthConfig {
            per_class: 8,
            side: 16,
            ..MnistSynthConfig::default()
        },
        23,
    )
    .unwrap()
    .select_classes(&[0, 1, 2, 3]);
    let net = models::small_cnn(1, 16, 4, 3);
    let samples = 24;

    let campaign = |threads: Threads| {
        let config = CollectionConfig {
            samples_per_category: samples,
            threads,
            ..CollectionConfig::default()
        };
        collect_campaign(
            |_| net.clone(),
            &ds,
            |c| SimulatedPmu::new(SimPmuConfig::default(), category_seed(0x9019, c)),
            &config,
        )
        .unwrap()
    };

    let (seq_collect_ms, obs_seq) = best_of(|| campaign(Threads::Count(1)));
    let (par_collect_ms, obs_par) = best_of(|| campaign(Threads::Count(PAR_WORKERS)));
    assert_eq!(
        obs_seq, obs_par,
        "collection must be bit-identical at any thread count"
    );

    // Tiny matrix: 2 events × C(4,2) pairs × 2 orders = 24 cells, far
    // below the evaluator's sequential-bypass cutoff. Both arms take the
    // sequential path, so the honest speedup here is ~1× — this arm
    // exists to show the bypass removed the historical 6× parallel
    // slowdown on small matrices.
    let evaluate_tiny = |threads: Threads| {
        let config = EvaluatorConfig {
            second_order: true,
            threads,
            ..EvaluatorConfig::default()
        };
        Evaluator::new(config).evaluate(&obs_seq).unwrap()
    };
    let (seq_tiny_ms, report_seq) = best_of(|| evaluate_tiny(Threads::Count(1)));
    let (par_tiny_ms, report_par) = best_of(|| evaluate_tiny(Threads::Count(PAR_WORKERS)));
    assert_eq!(
        report_seq.per_event, report_par.per_event,
        "evaluation must be bit-identical at any thread count"
    );

    // Big matrix: 8 events × C(16,2) pairs × 2 orders = 1920 cells, well
    // past the cutoff — this is the matrix shape where the pool earns its
    // spin-up cost. The observations are synthetic (deterministic hash
    // noise with a per-category shift); only the t-test matrix is timed.
    let eval_categories = 16usize;
    let eval_samples = 64usize;
    let big_obs: Vec<CategoryObservations> = (0..eval_categories)
        .map(|c| {
            let per_event: BTreeMap<HpcEvent, Vec<f64>> = HpcEvent::ALL
                .iter()
                .enumerate()
                .map(|(e, &event)| {
                    let series = (0..eval_samples)
                        .map(|i| {
                            let mut x = ((c as u64) << 40) ^ ((e as u64) << 20) ^ i as u64;
                            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            x ^= x >> 33;
                            (x % 10_000) as f64 / 10.0 + c as f64 * 5.0
                        })
                        .collect();
                    (event, series)
                })
                .collect();
            CategoryObservations {
                category: c,
                per_event,
                predictions: vec![0; eval_samples],
            }
        })
        .collect();
    let evaluate_big = |threads: Threads| {
        let config = EvaluatorConfig {
            second_order: true,
            threads,
            ..EvaluatorConfig::default()
        };
        Evaluator::new(config).evaluate(&big_obs).unwrap()
    };
    let (seq_eval_ms, big_seq) = best_of(|| evaluate_big(Threads::Count(1)));
    let (par_eval_ms, big_par) = best_of(|| evaluate_big(Threads::Count(PAR_WORKERS)));
    assert_eq!(
        big_seq.per_event, big_par.per_event,
        "evaluation must be bit-identical at any thread count"
    );

    // Blocked GEMM throughput, single thread. The dims straddle the
    // kernel's block boundaries (BLOCK_K = 128, BLOCK_N = 256) so the
    // packed multi-block path is what gets timed.
    let gemm_dim = 192usize;
    let fill = |salt: usize| -> Tensor {
        let data: Vec<f32> = (0..gemm_dim * gemm_dim)
            .map(|i| ((i * 37 + salt) % 101) as f32 / 101.0 - 0.5)
            .collect();
        Tensor::from_vec(data, [gemm_dim, gemm_dim]).unwrap()
    };
    let (a, b) = (fill(0), fill(55));
    let mut c = Tensor::zeros([gemm_dim, gemm_dim]);
    let mut gemm_scratch = GemmScratch::new();
    let (gemm_ms, _) = best_of(|| {
        ops::matmul_into(&a, &b, &mut c, &mut gemm_scratch).unwrap();
        c.as_slice()[0]
    });
    let gemm_mflops = 2.0 * (gemm_dim as f64).powi(3) / (gemm_ms * 1e-3) / 1e6;

    // Batched vs per-sample inference, single thread: the win batching
    // must deliver before any parallelism. The bitwise contract —
    // batched row `s` equals per-sample inference on sample `s` — is
    // asserted on the timed outputs.
    let batch_n = 32usize;
    let images: Vec<Tensor> = (0..batch_n)
        .map(|s| {
            let data: Vec<f32> = (0..256)
                .map(|i| {
                    let v = (i * 2654435761usize + s * 97) % 11;
                    if v < 5 {
                        0.0
                    } else {
                        v as f32 / 10.0
                    }
                })
                .collect();
            Tensor::from_vec(data, [1, 16, 16]).unwrap()
        })
        .collect();
    let mlp = models::mnist_mlp(1, 16, 3);
    let mut scalar_net = mlp.clone();
    let (scalar_infer_ms, scalar_out) = best_of(|| {
        images
            .iter()
            .map(|x| scalar_net.infer(x).unwrap())
            .collect::<Vec<_>>()
    });
    let mut batch_net = mlp.clone();
    let stacked = scnn_nn::batch::stack(&images.iter().collect::<Vec<_>>()).unwrap();
    let (batch_infer_ms, batch_out) =
        best_of(|| batch_net.forward(&stacked, scnn_nn::Mode::Infer).unwrap());
    let want = scnn_nn::batch::stack(&scalar_out.iter().collect::<Vec<_>>()).unwrap();
    assert_eq!(
        batch_out, want,
        "batched inference must match per-sample inference row for row"
    );

    // `available_parallelism` honours affinity pinning and cgroup caps,
    // so it under-reports on constrained CI shards; `host_parallelism`
    // counts the CPUs the machine physically has. Both are recorded so a
    // reader can tell "the host is small" apart from "the process was
    // pinned" when judging the speedup columns.
    let host = scnn_bench::harness::host_parallelism();
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // On an effectively single-core host every "parallel" arm time-slices
    // one CPU, so the speedup columns measure scheduler overhead, not
    // parallelism. The flag lets consumers (ci/bench_gate.sh) skip
    // speedup judgements loudly instead of reading noise as regression.
    let degraded = host.min(available) == 1;
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"parallel\",\n",
            "  \"host_parallelism\": {host},\n",
            "  \"available_parallelism\": {available},\n",
            "  \"degraded_host\": {degraded},\n",
            "  \"par_workers\": {workers},\n",
            "  \"campaign\": {{ \"categories\": 4, \"samples_per_category\": {samples} }},\n",
            "  \"evaluator_matrix\": {{ \"categories\": {ecats}, \"events\": {eevents}, \"samples\": {esamples} }},\n",
            "  \"collect_ms\": {{ \"threads_1\": {sc:.3}, \"threads_n\": {pc:.3}, \"speedup\": {cs:.3} }},\n",
            "  \"evaluate_ms\": {{ \"threads_1\": {st:.3}, \"threads_n\": {pt:.3}, \"speedup\": {ts:.3} }},\n",
            "  \"evaluate_big_ms\": {{ \"threads_1\": {se:.3}, \"threads_n\": {pe:.3}, \"speedup\": {es:.3} }},\n",
            "  \"gemm\": {{ \"dims\": [{gd}, {gd}, {gd}], \"ms\": {gms:.3}, \"mflops\": {gmf:.1} }},\n",
            "  \"batch_infer_ms\": {{ \"model\": \"mnist_mlp\", \"batch_size\": {bn}, \"scalar\": {sim:.3}, \"batch\": {bim:.3}, \"speedup\": {bis:.3} }},\n",
            "  \"bit_identical\": true\n",
            "}}\n"
        ),
        host = host,
        available = available,
        degraded = degraded,
        workers = PAR_WORKERS,
        samples = samples,
        ecats = eval_categories,
        eevents = HpcEvent::ALL.len(),
        esamples = eval_samples,
        sc = seq_collect_ms,
        pc = par_collect_ms,
        cs = seq_collect_ms / par_collect_ms,
        se = seq_eval_ms,
        pe = par_eval_ms,
        es = seq_eval_ms / par_eval_ms,
        st = seq_tiny_ms,
        pt = par_tiny_ms,
        ts = seq_tiny_ms / par_tiny_ms,
        gd = gemm_dim,
        gms = gemm_ms,
        gmf = gemm_mflops,
        bn = batch_n,
        sim = scalar_infer_ms,
        bim = batch_infer_ms,
        bis = scalar_infer_ms / batch_infer_ms,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(path, &json).expect("write BENCH_parallel.json");
    print!("{json}");
    println!("wrote {path}");
}
