//! Cache-blocked, register-tiled GEMM kernels over raw `f32` slices.
//!
//! These are the slice-level engines behind the [`crate::ops`] matrix
//! wrappers and the batched forward/backward paths in `scnn-nn`. Two
//! properties drive the design:
//!
//! - **Throughput.** The inner loops are branch-free (no per-element
//!   zero test — that defeats autovectorization on dense operands; any
//!   sparsity exploitation belongs to the *traced* sparse-im2col kernels
//!   in `scnn-nn`, which model it as an event stream, not as arithmetic).
//!   `B` is packed into a contiguous panel when it exceeds one block and
//!   `A` has more than one row, so the hot loop streams cache-resident
//!   rows, and each `C` row segment is held in a register tile across
//!   the whole depth of a `k` block.
//! - **Determinism.** Block sizes are fixed constants, `k` blocks are
//!   visited in increasing order, and the register tile is seeded from
//!   (and stored back to) `C` — so every `C[i][j]` is a *single running
//!   left fold over `k` in increasing order*, exactly the rounding
//!   sequence of the textbook `i/k/j` triple loop. Blocking changes the
//!   memory schedule, never the reduction order, which is what keeps
//!   results bit-identical across shapes, thread counts and refactors
//!   (see DESIGN.md §12).

use crate::error::{Result, ShapeError};

/// Depth (`k` extent) of one panel block. Each `C[i][j]` accumulates its
/// `k` range in increasing block order, so this only affects scheduling.
const BLOCK_K: usize = 128;
/// Width (`j` extent) of one panel block: `BLOCK_K × BLOCK_N` floats =
/// 128 KiB, sized to sit comfortably in L2 while the register tile
/// streams it.
const BLOCK_N: usize = 256;
/// Register-tile width: one `C` row segment of this many accumulators is
/// kept in registers across an entire `k` block (four 4-lane SSE2
/// vectors).
const TILE_N: usize = 16;
/// Register-tile height: this many `C` rows share every `B` panel row
/// load, so a tile holds `TILE_M × TILE_N` accumulators (8 of the 16 SSE2
/// registers).
const TILE_M: usize = 2;
/// Lane-strip width of [`gemm_abt`]: this many `C` rows (one packed
/// panel row segment, two 4-lane vectors on SSE2) advance together.
const ABT_LANES: usize = 8;
/// `B` rows folded per pass of [`gemm_abt`] over a lane strip, so
/// `ABT_LANES × ABT_ROWS` independent accumulators are in flight (the
/// kernel's four named accumulators destructure exactly this many).
const ABT_ROWS: usize = 4;
/// `r` rows folded per pass of [`gemm_atb`] over each `C` row (the
/// kernel destructures exactly this many `A` and `B` rows).
const ATB_ROWS: usize = 4;

/// Caller-owned scratch for panel packing, so steady-state GEMM calls
/// allocate nothing. Cloning yields an *empty* scratch: buffers are lazy
/// working state, not data, and network replicas must not pay to copy
/// them.
#[derive(Debug, Default)]
pub struct GemmScratch {
    panel: Vec<f32>,
}

impl GemmScratch {
    /// Creates an empty scratch; buffers grow on first use and are
    /// reused afterwards.
    pub fn new() -> Self {
        GemmScratch::default()
    }
}

impl Clone for GemmScratch {
    fn clone(&self) -> Self {
        GemmScratch::default()
    }
}

/// How the output matrix is initialised before accumulation.
///
/// Bias is an *initialiser*, not an epilogue: seeding `C` with the bias
/// and then accumulating reproduces, bit for bit, the per-sample kernels
/// that start from the bias vector (`y ← b; y += xᵢ·Wᵢ`).
#[derive(Debug, Clone, Copy)]
pub enum GemmInit<'a> {
    /// `C ← 0`.
    Zeros,
    /// `C[i][j] ← bias[j]` — one bias per output column (dense layers:
    /// `[N, in]·[in, out]` with a `[out]` bias).
    BiasPerCol(&'a [f32]),
    /// `C[i][j] ← bias[i]` — one bias per output row (convolution
    /// lowering: `[F, K]·[K, N·P]` with a `[F]` bias).
    BiasPerRow(&'a [f32]),
}

/// `C = init ∘ (A·B)` with an optional fused thresholded-ReLU epilogue:
/// `A` is `[m, k]`, `B` is `[k, n]`, `C` is `[m, n]`, all row-major.
///
/// When `relu_threshold` is `Some(t)` every finished output is clamped
/// to `0.0` unless it exceeds `t` (the sparsifying ReLU of `scnn-nn`),
/// applied in one sweep while `C` is still cache-hot.
///
/// # Errors
///
/// Returns [`ShapeError::Mismatch`] when a slice length disagrees with
/// the stated dimensions.
// BLAS-style surface: dims and operands stay positional like sgemm's.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    init: GemmInit<'_>,
    relu_threshold: Option<f32>,
    c: &mut [f32],
    scratch: &mut GemmScratch,
) -> Result<()> {
    check_len(a.len(), m, k)?;
    check_len(b.len(), k, n)?;
    check_len(c.len(), m, n)?;
    match init {
        GemmInit::Zeros => c.fill(0.0),
        GemmInit::BiasPerCol(bias) => {
            check_len(bias.len(), 1, n)?;
            for row in c.chunks_exact_mut(n.max(1)) {
                row.copy_from_slice(bias);
            }
        }
        GemmInit::BiasPerRow(bias) => {
            check_len(bias.len(), m, 1)?;
            for (row, &bv) in c.chunks_exact_mut(n.max(1)).zip(bias) {
                row.fill(bv);
            }
        }
    }
    accumulate(a, b, m, k, n, c, scratch);
    if let Some(t) = relu_threshold {
        for v in c.iter_mut() {
            *v = if *v > t { *v } else { 0.0 };
        }
    }
    scnn_obs::counter_add("gemm.calls", 1);
    scnn_obs::counter_add("gemm.flops", 2 * (m * k * n) as u64);
    Ok(())
}

/// The blocked accumulation core: `C += A·B`. Per-element reduction
/// order is strictly `k`-increasing (blocks ascend, `p` ascends within a
/// block, and the register tile carries the running value through each
/// block), matching the naive streaming `i/k/j` loop bit for bit.
fn accumulate(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
    scratch: &mut GemmScratch,
) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    // One-block operands are read in place; anything larger gets its
    // current `B` block packed contiguously so panel rows are unit-stride
    // regardless of `n` — unless `A` has a single row, which reads each
    // panel row once, so a copy would cost as much as the multiply.
    let pack = m > 1 && (k > BLOCK_K || n > BLOCK_N);
    for jb in (0..n).step_by(BLOCK_N) {
        let jw = BLOCK_N.min(n - jb);
        for kb in (0..k).step_by(BLOCK_K) {
            let kw = BLOCK_K.min(k - kb);
            if pack {
                scratch.panel.clear();
                for p in 0..kw {
                    let src = &b[(kb + p) * n + jb..(kb + p) * n + jb + jw];
                    scratch.panel.extend_from_slice(src);
                }
            }
            let block = Block {
                // Packed rows are `jw` long; in place, the block starts at
                // `B[kb][jb]` and its rows are `n` apart.
                panel: if pack {
                    &scratch.panel
                } else {
                    &b[kb * n + jb..]
                },
                stride: if pack { jw } else { n },
                k,
                kb,
                kw,
                n,
                jb,
                jw,
            };
            let mut i = 0;
            while i + TILE_M <= m {
                block.rows::<TILE_M>(a, i, c);
                i += TILE_M;
            }
            for i in i..m {
                block.rows::<1>(a, i, c);
            }
        }
    }
}

/// One `(k, j)` block of [`accumulate`]: the `B` panel rows `kb..kb + kw`
/// over columns `jb..jb + jw`, as packed or read in place. `panel` starts
/// at the block's first element.
struct Block<'p> {
    panel: &'p [f32],
    stride: usize,
    k: usize,
    kb: usize,
    kw: usize,
    n: usize,
    jb: usize,
    jw: usize,
}

impl Block<'_> {
    /// Accumulates the block into `C` rows `i0..i0 + R`. Each register
    /// tile is `R × TILE_N` outputs: seeded from `C`, accumulated over the
    /// whole `k` block with every panel row loaded once for all `R` rows,
    /// and stored back — one rounding per multiply-add, in `k` order, the
    /// same as streaming one row at a time.
    fn rows<const R: usize>(&self, a: &[f32], i0: usize, c: &mut [f32]) {
        let Block {
            panel,
            stride,
            k,
            kb,
            kw,
            n,
            jb,
            jw,
        } = *self;
        let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * k + kb..][..kw]);
        let mut j = 0;
        while j + TILE_N <= jw {
            let mut acc = [[0.0f32; TILE_N]; R];
            for (r, accr) in acc.iter_mut().enumerate() {
                accr.copy_from_slice(&c[(i0 + r) * n + jb + j..][..TILE_N]);
            }
            for p in 0..kw {
                let brow = &panel[p * stride + j..][..TILE_N];
                for (accr, arow) in acc.iter_mut().zip(&arows) {
                    let av = arow[p];
                    for (accv, &bv) in accr.iter_mut().zip(brow) {
                        *accv += av * bv;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                c[(i0 + r) * n + jb + j..][..TILE_N].copy_from_slice(accr);
            }
            j += TILE_N;
        }
        if j < jw {
            // Ragged column tail: same k-increasing streaming, row by row.
            for (r, arow) in arows.iter().enumerate() {
                let crow = &mut c[(i0 + r) * n + jb + j..(i0 + r) * n + jb + jw];
                for (p, &av) in arow.iter().enumerate() {
                    let brow = &panel[p * stride + j..p * stride + jw];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
            }
        }
    }
}

/// `C (+)= A·Bᵀ` without materialising the transpose: `A` is `[m, k]`,
/// `B` is `[n, k]`, `C` is `[m, n]`. Each output is a single left-fold
/// dot product (`p` increasing) that starts from the neutral element of
/// `Iterator::<f32>::sum` — exactly `arow·brow` summed with `.sum()`, and
/// the same reduction order as `gemm` against an explicitly transposed
/// `B`.
///
/// With `accumulate = false` the output is overwritten; with `true` the
/// finished dot product is added to the existing value (gradient
/// accumulation).
///
/// The schedule keeps `ABT_LANES × ABT_ROWS` (8 × 4) outputs in flight:
/// `Aᵀ` is packed into a `[k, m]` panel, stored as strips of `ABT_LANES`
/// columns (`m` padded up to whole strips), so for each `p` one
/// contiguous lane vector of `A` values meets `ABT_ROWS` broadcast `B`
/// values. Lanes and rows are independent accumulators, so
/// vectorising across them changes the memory schedule only; every
/// output's fold is still one running sum over `p` in increasing order
/// (see DESIGN.md §12).
///
/// # Errors
///
/// Returns [`ShapeError::Mismatch`] on slice/dimension disagreement.
// BLAS-style surface: dims and operands stay positional like sgemm's.
#[allow(clippy::too_many_arguments)]
pub fn gemm_abt(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    c: &mut [f32],
    scratch: &mut GemmScratch,
) -> Result<()> {
    check_len(a.len(), m, k)?;
    check_len(b.len(), n, k)?;
    check_len(c.len(), m, n)?;
    // `.sum()`'s starting value (−0.0 on current toolchains): folding
    // from it keeps a dot product of all-(−0.0) terms, or of no terms,
    // bit-equal to `arow·brow` summed with `.sum()`.
    let neutral: f32 = std::iter::empty::<f32>().sum();
    // Strip-major packing: strip `s` holds `A` rows `s·L .. s·L + L` as
    // `k` consecutive lane vectors (`panel[(s·k + p)·L + l] = A[s·L + l][p]`),
    // rows past `m` zero-padded.
    let strips = m.div_ceil(ABT_LANES);
    let panel = &mut scratch.panel;
    panel.clear();
    panel.resize(strips * k * ABT_LANES, 0.0);
    for (i, arow) in a.chunks_exact(k.max(1)).take(m).enumerate() {
        let (s, l) = (i / ABT_LANES, i % ABT_LANES);
        for (p, &av) in arow.iter().enumerate() {
            panel[(s * k + p) * ABT_LANES + l] = av;
        }
    }
    let store = |c: &mut [f32], i0: usize, j: usize, acc: &[f32; ABT_LANES]| {
        for (l, &dot) in acc.iter().enumerate().take(m - i0) {
            let out = &mut c[(i0 + l) * n + j];
            *out = if accumulate { *out + dot } else { dot };
        }
    };
    for s in 0..strips {
        let i0 = s * ABT_LANES;
        let strip = &panel[s * k * ABT_LANES..(s + 1) * k * ABT_LANES];
        let lanes = || strip.chunks_exact(ABT_LANES).take(k);
        let mut j = 0;
        while j + ABT_ROWS <= n {
            let row = |r: usize| &b[(j + r) * k..(j + r + 1) * k];
            let [mut c0, mut c1, mut c2, mut c3] = [[neutral; ABT_LANES]; ABT_ROWS];
            for ((((av, &b0), &b1), &b2), &b3) in
                lanes().zip(row(0)).zip(row(1)).zip(row(2)).zip(row(3))
            {
                for l in 0..ABT_LANES {
                    c0[l] += av[l] * b0;
                    c1[l] += av[l] * b1;
                    c2[l] += av[l] * b2;
                    c3[l] += av[l] * b3;
                }
            }
            for (r, accr) in [c0, c1, c2, c3].iter().enumerate() {
                store(c, i0, j + r, accr);
            }
            j += ABT_ROWS;
        }
        // Ragged `B` tail: one row per pass, same fold.
        for j in j..n {
            let mut acc = [neutral; ABT_LANES];
            for (av, &bv) in lanes().zip(&b[j * k..(j + 1) * k]) {
                for (accv, &x) in acc.iter_mut().zip(av) {
                    *accv += x * bv;
                }
            }
            store(c, i0, j, &acc);
        }
    }
    scnn_obs::counter_add("gemm.calls", 1);
    scnn_obs::counter_add("gemm.flops", 2 * (m * k * n) as u64);
    Ok(())
}

/// `C (+)= Aᵀ·B` without materialising the transpose: `A` is `[r, m]`,
/// `B` is `[r, n]`, `C` is `[m, n]`. The reduction streams `r` in
/// increasing order, so accumulating a batch reproduces the per-sample
/// `C += aᵣ ⊗ bᵣ` outer-product sequence bit for bit.
///
/// Each pass over a `C` row folds `ATB_ROWS` consecutive `r` rows into it
/// (`v += a₀·b₀; v += a₁·b₁; …` in `r` order), so `C` is loaded and stored
/// once per group instead of once per row; the chain per output is
/// unchanged.
///
/// # Errors
///
/// Returns [`ShapeError::Mismatch`] on slice/dimension disagreement.
pub fn gemm_atb(
    a: &[f32],
    b: &[f32],
    r: usize,
    m: usize,
    n: usize,
    accumulate: bool,
    c: &mut [f32],
) -> Result<()> {
    check_len(a.len(), r, m)?;
    check_len(b.len(), r, n)?;
    check_len(c.len(), m, n)?;
    if !accumulate {
        c.fill(0.0);
    }
    let mut row = 0;
    while row + ATB_ROWS <= r {
        let [a0, a1, a2, a3]: [&[f32]; ATB_ROWS] =
            std::array::from_fn(|q| &a[(row + q) * m..(row + q + 1) * m]);
        let [b0, b1, b2, b3]: [&[f32]; ATB_ROWS] =
            std::array::from_fn(|q| &b[(row + q) * n..(row + q + 1) * n]);
        for (i, crow) in c.chunks_exact_mut(n.max(1)).enumerate() {
            let (x0, x1, x2, x3) = (a0[i], a1[i], a2[i], a3[i]);
            for ((((cv, &y0), &y1), &y2), &y3) in crow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                let mut v = *cv;
                v += x0 * y0;
                v += x1 * y1;
                v += x2 * y2;
                v += x3 * y3;
                *cv = v;
            }
        }
        row += ATB_ROWS;
    }
    // Ragged `r` tail: one rank-1 update per row, same chain.
    for row in row..r {
        let arow = &a[row * m..(row + 1) * m];
        let brow = &b[row * n..(row + 1) * n];
        for (crow, &av) in c.chunks_exact_mut(n.max(1)).zip(arow) {
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
    scnn_obs::counter_add("gemm.calls", 1);
    scnn_obs::counter_add("gemm.flops", 2 * (r * m * n) as u64);
    Ok(())
}

/// Square tile edge for the blocked transpose: a 32×32 `f32` tile is
/// 4 KiB on each side, so both the row-major reads and the column-major
/// writes stay within a handful of cache lines per tile.
const TRANSPOSE_TILE: usize = 32;

/// Blocked out-of-place transpose: `dst[j][i] = src[i][j]` for an
/// `[m, n]` source. A pure permutation — no arithmetic, so there is
/// nothing to keep deterministic beyond the copy itself.
///
/// # Errors
///
/// Returns [`ShapeError::Mismatch`] on slice/dimension disagreement.
pub fn transpose_into(src: &[f32], m: usize, n: usize, dst: &mut [f32]) -> Result<()> {
    check_len(src.len(), m, n)?;
    check_len(dst.len(), n, m)?;
    for ib in (0..m).step_by(TRANSPOSE_TILE) {
        let ih = TRANSPOSE_TILE.min(m - ib);
        for jb in (0..n).step_by(TRANSPOSE_TILE) {
            let jw = TRANSPOSE_TILE.min(n - jb);
            for i in ib..ib + ih {
                for j in jb..jb + jw {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
    }
    Ok(())
}

fn check_len(len: usize, rows: usize, cols: usize) -> Result<()> {
    if len != rows * cols {
        return Err(ShapeError::Mismatch {
            left: vec![len],
            right: vec![rows, cols],
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill with a mix of signs and exact
    /// zeros (zeros exercise the removed skip branch's edge cases).
    fn fill(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u64 + 1)
                    .wrapping_mul(seed | 1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let v = ((x >> 40) % 2000) as f32 / 100.0 - 10.0;
                if x.is_multiple_of(7) {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    /// The reference reduction order: naive streaming `i/k/j`, no
    /// blocking, no branches. The blocked kernel must match bit for bit.
    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] += av * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn blocked_matches_naive_bitwise_across_block_boundaries() {
        // Shapes straddling every blocking edge: tiny, exactly one
        // block, one-past, ragged tails in every dimension.
        let shapes = [
            (1, 1, 1),
            (3, 5, 7),
            (4, BLOCK_K, TILE_N),
            (2, BLOCK_K + 1, TILE_N + 1),
            (5, 2 * BLOCK_K + 3, BLOCK_N + 17),
            (7, 130, 300),
            // One row of `A`: `B` read in place, block by block.
            (1, 2 * BLOCK_K + 3, BLOCK_N + 17),
            (1, BLOCK_K + 1, TILE_N + 3),
        ];
        for &(m, k, n) in &shapes {
            let a = fill(m * k, 11);
            let b = fill(k * n, 23);
            let want = naive(&a, &b, m, k, n);
            let mut got = vec![1.0f32; m * n]; // poisoned: init must clear
            let mut scratch = GemmScratch::new();
            gemm(
                &a,
                &b,
                m,
                k,
                n,
                GemmInit::Zeros,
                None,
                &mut got,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(got, want, "({m},{k},{n})");
        }
    }

    #[test]
    fn bias_init_matches_seeded_streaming() {
        let (m, k, n) = (4, 150, 20);
        let a = fill(m * k, 3);
        let b = fill(k * n, 5);
        let col_bias = fill(n, 7);
        let row_bias = fill(m, 9);
        let mut scratch = GemmScratch::new();

        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                want[i * n + j] = col_bias[j];
            }
        }
        for (i, row) in naive(&a, &b, m, k, n).chunks(n).enumerate() {
            // Seed-then-stream: same fold, bias first.
            let mut seeded = col_bias.clone();
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    seeded[j] += av * b[p * n + j];
                }
            }
            want[i * n..(i + 1) * n].copy_from_slice(&seeded);
            let _ = row;
        }
        let mut got = vec![0.0f32; m * n];
        gemm(
            &a,
            &b,
            m,
            k,
            n,
            GemmInit::BiasPerCol(&col_bias),
            None,
            &mut got,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(got, want);

        let mut got_row = vec![0.0f32; m * n];
        gemm(
            &a,
            &b,
            m,
            k,
            n,
            GemmInit::BiasPerRow(&row_bias),
            None,
            &mut got_row,
            &mut scratch,
        )
        .unwrap();
        for i in 0..m {
            let mut seeded = vec![row_bias[i]; n];
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    seeded[j] += av * b[p * n + j];
                }
            }
            assert_eq!(&got_row[i * n..(i + 1) * n], &seeded[..], "row {i}");
        }
    }

    #[test]
    fn relu_epilogue_thresholds() {
        let a = [1.0f32, -1.0];
        let b = [2.0f32, -3.0, 0.05, 0.0];
        let mut c = [0.0f32; 2];
        let mut scratch = GemmScratch::new();
        // [1, 2]·[2, 2]: y = [2 - 0.05, -3 - 0] = [1.95, -3.0]
        gemm(
            &a,
            &b,
            1,
            2,
            2,
            GemmInit::Zeros,
            Some(0.1),
            &mut c,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(c, [1.95, 0.0]);
    }

    #[test]
    fn abt_matches_explicit_transpose() {
        let (m, k, n) = (6, 37, 5);
        let a = fill(m * k, 13);
        let b = fill(n * k, 17); // [n, k]
        let mut bt = vec![0.0f32; k * n];
        transpose_into(&b, n, k, &mut bt).unwrap();
        let want = naive(&a, &bt, m, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_abt(&a, &b, m, k, n, false, &mut got, &mut GemmScratch::new()).unwrap();
        assert_eq!(got, want);
        // Accumulating form adds on top.
        gemm_abt(&a, &b, m, k, n, true, &mut got, &mut GemmScratch::new()).unwrap();
        let doubled: Vec<f32> = want.iter().map(|&v| v + v).collect();
        assert_eq!(got, doubled);
    }

    /// The pre-tiling `gemm_abt`: one row-dot-row `.sum()` per output,
    /// then overwrite or add. The lane-tiled kernel must equal it bit for
    /// bit, signed zeros included.
    fn abt_row_dot_row(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        accumulate: bool,
        c: &mut [f32],
    ) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let dot: f32 = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
                let out = &mut c[i * n + j];
                *out = if accumulate { *out + dot } else { dot };
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs both kernels from the same starting `C` and compares bits.
    #[allow(clippy::too_many_arguments)]
    fn assert_abt_bitwise(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        accumulate: bool,
        c0: &[f32],
        scratch: &mut GemmScratch,
    ) {
        let mut want = c0.to_vec();
        abt_row_dot_row(a, b, m, k, n, accumulate, &mut want);
        let mut got = c0.to_vec();
        gemm_abt(a, b, m, k, n, accumulate, &mut got, scratch).unwrap();
        assert_eq!(
            bits(&got),
            bits(&want),
            "m={m} k={k} n={n} accumulate={accumulate}"
        );
    }

    #[test]
    fn abt_lane_kernel_bitwise_equals_row_dot_row_fold() {
        // `m` off the lane width, `n` off the row tile, `k` empty, one
        // term, and long enough (577) for rounding to differ under any
        // reassociation. One scratch across every call: stale panel
        // contents from a larger shape must not leak into a smaller one.
        let mut scratch = GemmScratch::new();
        for &m in &[1, 3, 7, 8, 9, 16, 17] {
            for &n in &[1, 2, 3, 4, 5, 7, 25] {
                for &k in &[0, 1, 577] {
                    let a = fill(m * k, 41 + m as u64);
                    let b = fill(n * k, 43 + n as u64);
                    let c0 = fill(m * n, 47);
                    for accumulate in [false, true] {
                        assert_abt_bitwise(&a, &b, m, k, n, accumulate, &c0, &mut scratch);
                    }
                }
            }
        }
    }

    #[test]
    fn abt_lane_kernel_keeps_signed_zeros() {
        let mut scratch = GemmScratch::new();
        let (m, k, n) = (9, 5, 6);
        // All-(−0.0) products: −0·x and 0·(−x) terms only, so every fold
        // stays at the sum's neutral element.
        let a: Vec<f32> = (0..m * k)
            .map(|i| if i % 2 == 0 { -0.0 } else { 0.0 })
            .collect();
        let b: Vec<f32> = (0..n * k)
            .map(|i| if i % 3 == 0 { 0.0 } else { -(i as f32) })
            .collect();
        // ±0.0 already in C, alternating, plus an empty-depth case.
        let c0: Vec<f32> = (0..m * n)
            .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        for accumulate in [false, true] {
            assert_abt_bitwise(&a, &b, m, k, n, accumulate, &c0, &mut scratch);
            assert_abt_bitwise(&[], &[], m, 0, n, accumulate, &c0, &mut scratch);
        }
        // The neutral element really is exercised: with no terms the
        // overwrite form writes `.sum()` of nothing.
        let mut c = c0.clone();
        gemm_abt(&[], &[], m, 0, n, false, &mut c, &mut scratch).unwrap();
        let empty: f32 = std::iter::empty::<f32>().sum();
        assert!(c.iter().all(|v| v.to_bits() == empty.to_bits()));
    }

    #[test]
    fn atb_matches_explicit_transpose_and_outer_product_order() {
        let (r, m, n) = (9, 4, 6);
        let a = fill(r * m, 19); // [r, m]
        let b = fill(r * n, 29); // [r, n]
        let mut at = vec![0.0f32; m * r];
        transpose_into(&a, r, m, &mut at).unwrap();
        let want = naive(&at, &b, m, r, n);
        let mut got = vec![0.0f32; m * n];
        gemm_atb(&a, &b, r, m, n, false, &mut got).unwrap();
        assert_eq!(got, want);

        // Sequence of per-row outer products — the order gradient
        // accumulation uses — must also match bit for bit.
        let mut seq = vec![0.0f32; m * n];
        for row in 0..r {
            for i in 0..m {
                for j in 0..n {
                    seq[i * n + j] += a[row * m + i] * b[row * n + j];
                }
            }
        }
        assert_eq!(got, seq);
    }

    /// [`fill`] with signed zeros mixed in: every fifth value `-0.0`, and
    /// every `zero_row`-th row of `cols` (rows `zero_row − 1`,
    /// `2·zero_row − 1`, …) all `±0.0`, so folds that should stay at a
    /// signed zero are exercised too.
    fn fill_signed(rows: usize, cols: usize, seed: u64, zero_row: usize) -> Vec<f32> {
        let mut v = fill(rows * cols, seed);
        for (i, x) in v.iter_mut().enumerate() {
            if (i / cols.max(1) + 1).is_multiple_of(zero_row) {
                *x = if i % 2 == 0 { -0.0 } else { 0.0 };
            } else if i % 5 == 0 {
                *x = -0.0;
            }
        }
        v
    }

    #[test]
    fn row_group_tiles_equal_streaming_bitwise() {
        // `m` off the row group, `n` off the register tile, `k` and `n`
        // past one block (so the panel is packed), over a `C` holding
        // ±0.0. One scratch across every shape.
        let mut scratch = GemmScratch::new();
        for &m in &[1, 2, 3, 5, 17] {
            for &k in &[1, 7, BLOCK_K + 5] {
                for &n in &[1, 15, TILE_N + 3, 3 * TILE_N, BLOCK_N + 21] {
                    let a = fill_signed(m, k, 53 + m as u64, 4);
                    let b = fill_signed(k, n, 59 + n as u64, 3);
                    let c0 = fill_signed(m, n, 61, 2);
                    let mut want = c0.clone();
                    for i in 0..m {
                        for p in 0..k {
                            for j in 0..n {
                                want[i * n + j] += a[i * k + p] * b[p * n + j];
                            }
                        }
                    }
                    let mut got = c0;
                    accumulate(&a, &b, m, k, n, &mut got, &mut scratch);
                    assert_eq!(bits(&got), bits(&want), "m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn atb_row_groups_equal_outer_product_sequence_bitwise() {
        // `r` below, at and past the 4-row group with a ragged tail, `m`
        // ragged, `n` off the tile and past a block, ±0.0 in `C`.
        for &r in &[0, 1, 3, ATB_ROWS, ATB_ROWS + 1, 2 * ATB_ROWS + 3] {
            for &m in &[1, 3, 5, 17] {
                for &n in &[1, 15, TILE_N + 3, BLOCK_N + 21] {
                    let a = fill_signed(r, m, 67 + m as u64, 3);
                    let b = fill_signed(r, n, 71 + n as u64, 4);
                    let c0 = fill_signed(m, n, 73, 2);
                    for accumulate in [false, true] {
                        let mut want = if accumulate {
                            c0.clone()
                        } else {
                            vec![0.0; m * n]
                        };
                        for row in 0..r {
                            for i in 0..m {
                                for j in 0..n {
                                    want[i * n + j] += a[row * m + i] * b[row * n + j];
                                }
                            }
                        }
                        let mut got = c0.clone();
                        gemm_atb(&a, &b, r, m, n, accumulate, &mut got).unwrap();
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "r={r} m={m} n={n} accumulate={accumulate}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_blocked_is_exact_permutation() {
        for &(m, n) in &[(1, 1), (3, 70), (70, 3), (33, 65)] {
            let src = fill(m * n, 31);
            let mut dst = vec![0.0f32; n * m];
            transpose_into(&src, m, n, &mut dst).unwrap();
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(dst[j * m + i], src[i * n + j]);
                }
            }
        }
    }

    #[test]
    fn scratch_clones_empty() {
        let mut s = GemmScratch::new();
        let a = fill(4, 1);
        let b = fill(4, 2);
        let mut c = vec![0.0f32; 4];
        gemm(&a, &b, 2, 2, 2, GemmInit::Zeros, None, &mut c, &mut s).unwrap();
        assert!(s.clone().panel.is_empty());
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let mut s = GemmScratch::new();
        let mut c = vec![0.0f32; 4];
        assert!(gemm(
            &[0.0; 3],
            &[0.0; 4],
            2,
            2,
            2,
            GemmInit::Zeros,
            None,
            &mut c,
            &mut s
        )
        .is_err());
        assert!(gemm(
            &[0.0; 4],
            &[0.0; 3],
            2,
            2,
            2,
            GemmInit::Zeros,
            None,
            &mut c,
            &mut s
        )
        .is_err());
        assert!(gemm_abt(&[0.0; 4], &[0.0; 3], 2, 2, 2, false, &mut c, &mut s).is_err());
        assert!(gemm_atb(&[0.0; 4], &[0.0; 3], 2, 2, 2, false, &mut c).is_err());
        assert!(transpose_into(&[0.0; 4], 2, 3, &mut c).is_err());
    }
}
