//! Runtime-dispatched SIMD kernel backend.
//!
//! The hot loops of the column-based algorithm — `dot`, `axpy`, `scale`,
//! `gemv_chunk`, the batched `gemm_chunk`, the lazy-softmax exp phase and
//! the fused chunk kernel — exist in two implementations:
//!
//! * **Scalar** — the portable reference implementation: plain Rust loops
//!   (auto-vectorizable by LLVM) and libm `exp`. This is the ground truth
//!   the property tests compare against.
//! * **Avx2** — explicit AVX2 + FMA intrinsics (8 f32 lanes, fused
//!   multiply-add) with a polynomial `exp` approximation
//!   ([`exp_approx`], max relative error [`EXP_MAX_REL_ERROR`]).
//!
//! The active backend is resolved once per process by [`backend`]:
//!
//! 1. the `force-scalar` cargo feature pins [`Backend::Scalar`]
//!    unconditionally (for reproducing reference numerics in embedders),
//! 2. otherwise the `MNNFAST_SIMD` environment variable (`scalar`, `avx2`
//!    or `auto`) picks the backend, clamped to what the CPU supports,
//! 3. otherwise `is_x86_feature_detected!` selects [`Backend::Avx2`] when
//!    AVX2 and FMA are both available, falling back to scalar.
//!
//! [`set_backend`] overrides the choice at runtime (tests and benchmark
//! harnesses use it to measure both implementations in one process).
//!
//! # Determinism contract
//!
//! For a fixed backend every kernel is a pure, deterministic function of
//! its inputs: the engine variants (column / streaming / parallel, any
//! thread count) therefore stay bitwise identical to each other. Results
//! *across* backends agree only approximately (different accumulation
//! widths, and the fused kernel's fast exp), within the tolerances asserted
//! by the property tests.
//!
//! # One definition of the f32 forward arithmetic
//!
//! Within a backend, the chunk kernels share one arithmetic, so a lone
//! question and any batch of questions get the same bits by construction:
//!
//! * **Row logit.** On AVX2 each (row, question) pair is one 8-lane FMA
//!   chain over `k` from zero, reduced through the `hsum4` tree, then the
//!   scalar `k`-tail. `hsum4` lane `i` depends only on accumulator `i`, so
//!   the 2-question × 4-row tile of [`gemm_chunk_with`], the width-1 tile
//!   of [`gemv_chunk_with`] and a padded remainder tile agree bit for bit.
//!   The scalar backend uses [`dot_scalar`] per row everywhere.
//! * **Weights and denominator.** [`lazy_weights_with`]: fast exp summed
//!   lane-wise over blocks of eight rows, then one pairwise lane reduction
//!   (AVX2), or libm `exp` summed in row order (scalar).
//! * **Weighted sum.** [`weighted_rows_with`]: each question adds its kept
//!   rows in row order with one FMA per lane — a row-ordered [`axpy_with`]
//!   loop — however many questions share each loaded out row.
//!
//! [`fused_chunk_lazy_with`] composes the three for one question; the
//! batched accumulate in `crate::softmax` composes them for many. The
//! general-purpose [`dot_with`] keeps its four-accumulator order and is
//! not a row-logit kernel.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation set is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable reference implementation (plain loops, libm `exp`).
    Scalar,
    /// AVX2 + FMA intrinsics with the polynomial fast exp.
    Avx2,
}

impl Backend {
    /// Stable machine-readable name (`scalar` / `avx2`).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parses a backend request as accepted by the `MNNFAST_SIMD`
    /// environment variable. `auto` (and the empty string) mean "detect";
    /// unknown values are rejected so typos do not silently change
    /// numerics.
    pub fn parse(s: &str) -> Option<Option<Backend>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Some(Backend::Scalar)),
            "avx2" | "simd" => Some(Some(Backend::Avx2)),
            "auto" | "" => Some(None),
            _ => None,
        }
    }

    /// The fastest backend this CPU supports.
    pub fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Backend::Avx2;
            }
        }
        Backend::Scalar
    }

    /// Clamps a requested backend to what the CPU can actually run.
    fn supported(self) -> Backend {
        match (self, Backend::detect()) {
            (Backend::Avx2, Backend::Scalar) => Backend::Scalar,
            (b, _) => b,
        }
    }
}

/// Cached backend choice: 0 = unresolved, 1 = scalar, 2 = avx2.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(b: Backend) -> u8 {
    match b {
        Backend::Scalar => 1,
        Backend::Avx2 => 2,
    }
}

/// Reads `MNNFAST_SIMD` strictly: unset, empty or `auto` mean "detect"
/// (`Ok(None)`), a valid backend name selects that backend, and anything
/// else is an [`EnvVarError`](crate::EnvVarError).
///
/// Lazy in-kernel resolution ([`backend`]) keeps a lenient detect-fallback
/// so library users who never validate still get working kernels; serving
/// entry points call [`crate::validate_env`] so a typo fails loudly at
/// startup instead of silently changing numerics.
pub fn backend_from_env() -> Result<Option<Backend>, crate::EnvVarError> {
    match std::env::var("MNNFAST_SIMD") {
        Ok(v) => match Backend::parse(&v) {
            Some(choice) => Ok(choice),
            None => Err(crate::EnvVarError::new(
                "MNNFAST_SIMD",
                v,
                "one of `scalar`, `avx2`, `auto` (empty/unset = auto)",
            )),
        },
        Err(_) => Ok(None),
    }
}

fn resolve_initial() -> Backend {
    if cfg!(feature = "force-scalar") {
        return Backend::Scalar;
    }
    match backend_from_env() {
        Ok(Some(requested)) => requested.supported(),
        Ok(None) | Err(_) => Backend::detect(),
    }
}

/// The active backend, resolving it on first use (see the module docs for
/// the resolution order).
#[inline]
pub fn backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Avx2,
        _ => {
            let b = resolve_initial();
            ACTIVE.store(encode(b), Ordering::Relaxed);
            b
        }
    }
}

/// Overrides the active backend process-wide, returning the previous one.
/// Requests the CPU cannot run are clamped to [`Backend::Scalar`]; the
/// `force-scalar` cargo feature wins over any override.
pub fn set_backend(b: Backend) -> Backend {
    let prev = backend();
    let next = if cfg!(feature = "force-scalar") {
        Backend::Scalar
    } else {
        b.supported()
    };
    ACTIVE.store(encode(next), Ordering::Relaxed);
    prev
}

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

/// Reference dot product: four independent partial sums (the BLAS level-1
/// ILP trick), plain ops, no FMA.
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f32; 4];
    let chunks = n / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for j in chunks * 4..n {
        sum += a[j] * b[j];
    }
    sum
}

/// Reference `y += alpha * x`.
pub fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Reference `x *= alpha`.
pub fn scale_scalar(alpha: f32, x: &mut [f32]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Reference row-chunk GEMV.
pub fn gemv_chunk_scalar(chunk: &[f32], n_rows: usize, x: &[f32], out: &mut [f32]) {
    let cols = x.len();
    for r in 0..n_rows {
        out[r] = dot_scalar(&chunk[r * cols..(r + 1) * cols], x);
    }
}

/// Reference chunk GEMM: one [`gemv_chunk_scalar`] per question, so on the
/// scalar backend the batched inner product is bitwise identical to the
/// per-question path. `out[q * n_rows + r] = chunk_row_r · question_q`.
pub fn gemm_chunk_scalar(
    chunk: &[f32],
    n_rows: usize,
    us_flat: &[f32],
    nq: usize,
    out: &mut [f32],
) {
    if nq == 0 {
        return;
    }
    let ed = us_flat.len() / nq;
    for q in 0..nq {
        gemv_chunk_scalar(
            chunk,
            n_rows,
            &us_flat[q * ed..(q + 1) * ed],
            &mut out[q * n_rows..(q + 1) * n_rows],
        );
    }
}

// ---------------------------------------------------------------------------
// Int8 inference kernels
// ---------------------------------------------------------------------------
//
// The quantized memory plane stores `M_IN`/`M_OUT` rows as i8 codes with a
// symmetric per-row scale (see `crate::quant`); the query is quantized once
// per pass the same way. The kernels below follow a stricter parity
// discipline than their f32 counterparts — **both backends are bitwise
// identical by construction**:
//
// * the inner product is *exact* integer arithmetic (i8×i8 products summed
//   in i32 — associativity is free, no rounding history to match; overflow
//   is impossible below `ed < 2³¹/127² ≈ 133k` columns),
// * the logit is one f32 rescale of the exact accumulator:
//   `(acc as f32) * (u_scale * row_scale)`, the same two roundings on both
//   backends,
// * the fused kernel exponentiates with `exp_approx`/`exp8` (bitwise-equal
//   by the fast-exp contract above) on *both* backends — unlike the f32
//   fused kernel, whose scalar arm uses libm `exp`,
// * the weighted accumulate dequantizes with separate multiply and add
//   (no FMA), element order identical on both backends.
//
// This turns the cross-backend property tests for the int8 path into exact
// equality assertions instead of tolerance comparisons.

/// Published bound on the logit error introduced by int8 quantization,
/// measured as `max_r |logit_q(r) − logit_f32(r)| / max_r |logit_f32(r)|`
/// over one pass. Two symmetric per-row quantizations contribute at most
/// half a step each per element; for embedding-scale data the accumulated
/// error stays well under this bound (asserted by the property tests and
/// re-measured on trained models by `bench_quant`).
pub const I8_LOGIT_MAX_REL_ERROR: f32 = 1e-2;

/// Reference i8 dot product: exact i32 accumulation.
pub fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len().min(b.len());
    let mut acc = 0i32;
    for i in 0..n {
        acc += a[i] as i32 * b[i] as i32;
    }
    acc
}

/// Dequantizing weighted accumulate: `ws[k] += alpha * (q[k] as f32)`,
/// with separate multiply and add. Both the scalar and the AVX2 fused int8
/// kernels accumulate through exactly this rounding sequence — part of the
/// int8 bitwise-parity contract.
#[inline]
pub fn dequant_axpy_scalar(alpha: f32, q: &[i8], ws: &mut [f32]) {
    for (w, &v) in ws.iter_mut().zip(q) {
        *w += alpha * (v as f32);
    }
}

/// Reference quantized row-chunk GEMV: `out[r]` is the *dequantized* logit
/// `(row_r · uq) · (u_scale · scales[r])`, rescaled once per row from the
/// exact integer accumulator.
pub fn gemv_chunk_i8_scalar(
    chunk: &[i8],
    scales: &[f32],
    n_rows: usize,
    uq: &[i8],
    u_scale: f32,
    out: &mut [f32],
) {
    let ed = uq.len();
    for r in 0..n_rows {
        let acc = dot_i8_scalar(&chunk[r * ed..(r + 1) * ed], uq);
        out[r] = acc as f32 * (u_scale * scales[r]);
    }
}

/// Reference fused lazy-softmax chunk kernel over quantized memory: exact
/// integer inner products, one f32 rescale per logit, `exp_approx`
/// weights (the same fast exp as the AVX2 kernel — see the parity note
/// above), threshold test, and the dequantizing weighted accumulate for
/// kept rows. Returns `(denominator contribution, skipped rows)`.
#[allow(clippy::too_many_arguments)]
pub fn fused_chunk_lazy_i8_scalar(
    in_q: &[i8],
    in_scales: &[f32],
    out_q: &[i8],
    out_scales: &[f32],
    n_rows: usize,
    uq: &[i8],
    u_scale: f32,
    raw_threshold: Option<f32>,
    weighted_sum: &mut [f32],
) -> (f32, u64) {
    let ed = uq.len();
    let mut denom = 0.0f32;
    let mut skipped = 0u64;
    for r in 0..n_rows {
        let acc = dot_i8_scalar(&in_q[r * ed..(r + 1) * ed], uq);
        let w = exp_approx(acc as f32 * (u_scale * in_scales[r]));
        denom += w;
        match raw_threshold {
            Some(th) if w < th => skipped += 1,
            _ => dequant_axpy_scalar(
                w * out_scales[r],
                &out_q[r * ed..(r + 1) * ed],
                weighted_sum,
            ),
        }
    }
    (denom, skipped)
}

// ---------------------------------------------------------------------------
// Embedding gather-sum kernels
// ---------------------------------------------------------------------------
//
// BoW embedding is a *gather-sum*: `out = Σ_j table[tokens[j]]`, optionally
// weighted per (position j, dimension k) by Sukhbaatar et al.'s position
// encoding `l_{kj} = (1 − j/nw) − (k/ed)(1 − 2j/nw)` (1-based `j`, `k`).
// Unlike the inference kernels above, the embed kernels are **bitwise
// identical across backends by design**: both accumulate each output
// element in token order, and the AVX2 path computes the PE weight with
// separate multiply and subtract (no FMA) so every intermediate rounds
// exactly as the scalar reference does. This lets the serving layer cache
// embeddings computed on either backend and guarantee cached vs uncached
// answers match bit for bit.

/// The position-encoding terms hoisted per token: `(a_j, m_j, ed_f)` with
/// `weight(k) = a_j - ((k+1)/ed_f) * m_j`. The float-op sequence mirrors
/// `position_weight` in `mnn-memnn` exactly (same rounding at every step).
#[inline]
fn pe_terms(j: usize, nw: usize, ed: usize) -> (f32, f32, f32) {
    let j1 = (j + 1) as f32;
    let nwf = nw.max(1) as f32;
    let edf = ed.max(1) as f32;
    (1.0 - j1 / nwf, 1.0 - 2.0 * j1 / nwf, edf)
}

/// Reference gather-sum: `out += Σ_j table[tokens[j]]` (rows are `ed` wide).
/// The caller zeroes `out`; panics via slice indexing if a token id is out
/// of the table's row range.
pub fn embed_sum_scalar(table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
    for &t in tokens {
        let row = &table[t as usize * ed..][..ed];
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// Reference position-encoded gather-sum: each row is weighted element-wise
/// by the position-encoding weight before accumulation.
pub fn embed_sum_pe_scalar(table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
    let nw = tokens.len();
    for (j, &t) in tokens.iter().enumerate() {
        let row = &table[t as usize * ed..][..ed];
        let (aj, mj, edf) = pe_terms(j, nw, ed);
        for (k, (o, &v)) in out.iter_mut().zip(row).enumerate() {
            let w = aj - ((k + 1) as f32 / edf) * mj;
            *o += w * v;
        }
    }
}

/// Reference fused A/C gather-sum: one pass over the tokens produces both
/// the `A`-side and `C`-side embeddings (`pe` selects position encoding),
/// so each position weight is computed once and both tables are walked
/// while the token's index arithmetic is hot. Bitwise identical to two
/// separate [`embed_sum_scalar`] / [`embed_sum_pe_scalar`] calls.
pub fn embed_pair_scalar(
    table_a: &[f32],
    table_c: &[f32],
    ed: usize,
    tokens: &[u32],
    pe: bool,
    out_a: &mut [f32],
    out_c: &mut [f32],
) {
    let nw = tokens.len();
    for (j, &t) in tokens.iter().enumerate() {
        let ra = &table_a[t as usize * ed..][..ed];
        let rc = &table_c[t as usize * ed..][..ed];
        if pe {
            let (aj, mj, edf) = pe_terms(j, nw, ed);
            for k in 0..ed {
                let w = aj - ((k + 1) as f32 / edf) * mj;
                out_a[k] += w * ra[k];
                out_c[k] += w * rc[k];
            }
        } else {
            for k in 0..ed {
                out_a[k] += ra[k];
                out_c[k] += rc[k];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Polynomial fast exp
// ---------------------------------------------------------------------------

/// Inputs are clamped to ±[`EXP_CLAMP`] before the range reduction;
/// `e^{±87.33}` spans the full normal `f32` range, and keeping `|n| ≤ 126`
/// makes the `2^n` exponent-bit trick exact with no overflow cases.
pub const EXP_CLAMP: f32 = 87.336_54;

/// Maximum relative error of [`exp_approx`] versus the true exponential
/// over the clamped input range, as asserted (with margin) by the tests.
/// The degree-5 polynomial after Cephes-style range reduction is accurate
/// to ~2⁻²² ≈ 2.4e-7; we publish a conservative bound.
pub const EXP_MAX_REL_ERROR: f32 = 1e-6;

const EXP_LOG2E: f32 = std::f32::consts::LOG2_E;
// ln(2) split into a high part exactly representable in f32 and the
// remainder, so `x - n*ln2` stays accurate (Cephes constants). The full
// digits of the high part are intentional: 0.693359375 = 355/512 exactly.
#[allow(clippy::excessive_precision)]
const EXP_C1: f32 = 0.693_359_375;
const EXP_C2: f32 = -2.121_944_4e-4;
const EXP_P0: f32 = 1.987_569_2e-4;
const EXP_P1: f32 = 1.398_199_9e-3;
const EXP_P2: f32 = 8.333_452e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_5e-1;
const EXP_P5: f32 = 5.000_000_3e-1;

/// Fast polynomial `e^x` (scalar form of the vectorized kernel).
///
/// Inputs outside ±[`EXP_CLAMP`] saturate monotonically (the clamp bound's
/// exponential, not `inf`/`0`). Within the range the relative error versus
/// libm is at most [`EXP_MAX_REL_ERROR`]. Uses `mul_add`, so one lane of
/// the AVX2 kernel and this function produce bitwise-identical results.
#[inline]
pub fn exp_approx(x: f32) -> f32 {
    let x = x.clamp(-EXP_CLAMP, EXP_CLAMP);
    // n = round(x / ln 2), computed as floor(x*log2e + 0.5) to match the
    // vector kernel's rounding exactly.
    let n = (x * EXP_LOG2E + 0.5).floor();
    let r = (-n).mul_add(EXP_C2, (-n).mul_add(EXP_C1, x));
    let mut p = EXP_P0;
    p = p.mul_add(r, EXP_P1);
    p = p.mul_add(r, EXP_P2);
    p = p.mul_add(r, EXP_P3);
    p = p.mul_add(r, EXP_P4);
    p = p.mul_add(r, EXP_P5);
    let p = p.mul_add(r * r, r) + 1.0;
    // 2^n via exponent bits: n ∈ [-126, 127] after the clamp.
    let two_n = f32::from_bits(((n as i32 + 127) as u32) << 23);
    p * two_n
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Horizontal sum of one 8-lane register, reduced pairwise.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let s = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
        _mm_cvtss_f32(s)
    }

    /// AVX2 dot product: four 8-lane FMA accumulators (32 elements per
    /// iteration) plus an 8-lane and a scalar tail.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 16)),
                _mm256_loadu_ps(pb.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 24)),
                _mm256_loadu_ps(pb.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            i += 8;
        }
        let folded = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        let mut sum = hsum(folded);
        while i < n {
            sum += a[i] * b[i];
            i += 1;
        }
        sum
    }

    /// AVX2 `y += alpha * x`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len().min(y.len());
        let va = _mm256_set1_ps(alpha);
        let (px, py) = (x.as_ptr(), y.as_mut_ptr());
        let mut i = 0usize;
        while i + 16 <= n {
            let y0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
            let y1 = _mm256_fmadd_ps(
                va,
                _mm256_loadu_ps(px.add(i + 8)),
                _mm256_loadu_ps(py.add(i + 8)),
            );
            _mm256_storeu_ps(py.add(i), y0);
            _mm256_storeu_ps(py.add(i + 8), y1);
            i += 16;
        }
        while i + 8 <= n {
            let y0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
            _mm256_storeu_ps(py.add(i), y0);
            i += 8;
        }
        while i < n {
            y[i] += alpha * x[i];
            i += 1;
        }
    }

    /// AVX2 `x *= alpha`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale(alpha: f32, x: &mut [f32]) {
        let n = x.len();
        let va = _mm256_set1_ps(alpha);
        let px = x.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            _mm256_storeu_ps(px.add(i), _mm256_mul_ps(va, _mm256_loadu_ps(px.add(i))));
            i += 8;
        }
        while i < n {
            x[i] *= alpha;
            i += 1;
        }
    }

    /// Reduces four 8-lane accumulators to their four lane sums at once:
    /// two `hadd` levels interleave the partial sums, one cross-half add
    /// finishes them, so lane `i` of the result is the full sum of `acc[i]`
    /// — and depends on `acc[i]` alone, which is what lets a padded tile
    /// or a tile of any width produce the same bits for the same row.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum4(acc: [__m256; 4]) -> __m128 {
        let t01 = _mm256_hadd_ps(acc[0], acc[1]);
        let t23 = _mm256_hadd_ps(acc[2], acc[3]);
        let t = _mm256_hadd_ps(t01, t23);
        _mm_add_ps(_mm256_castps256_ps128(t), _mm256_extractf128_ps(t, 1))
    }

    /// The row-logit micro-kernel: an `NQ`-question × 4-row tile. Each
    /// (question, row) pair owns one 8-lane FMA chain over `k` starting
    /// from zero; each `k`-step issues `NQ + 4` loads feeding `4 * NQ`
    /// FMAs, so a loaded memory row is reused across the tile's questions.
    /// Every question's four chains reduce through one [`hsum4`], then the
    /// `k`-tail (`ed % 8` elements) is added in `k` order, lane `i` being
    /// row `i` (multiply, then add). This is the *single definition* of an
    /// f32 row logit: the result for a row depends only on that row and the
    /// question, never on the tile width or on which rows share the tile
    /// (a repeated row pointer pads a short tile).
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available; each `rows[i]` and `us[q]` must
    /// address `ed` readable floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn logit_tile<const NQ: usize>(
        rows: [*const f32; 4],
        us: [*const f32; NQ],
        ed: usize,
    ) -> [__m128; NQ] {
        let mut acc = [[_mm256_setzero_ps(); 4]; NQ];
        let mut k = 0usize;
        while k + 8 <= ed {
            let mut v = [_mm256_setzero_ps(); NQ];
            for (vq, uq) in v.iter_mut().zip(&us) {
                *vq = _mm256_loadu_ps(uq.add(k));
            }
            for (i, row) in rows.iter().enumerate() {
                let x = _mm256_loadu_ps(row.add(k));
                for (aq, vq) in acc.iter_mut().zip(&v) {
                    aq[i] = _mm256_fmadd_ps(x, *vq, aq[i]);
                }
            }
            k += 8;
        }
        let mut sums = [_mm_setzero_ps(); NQ];
        for ((s, aq), uq) in sums.iter_mut().zip(&acc).zip(&us) {
            *s = hsum4(*aq);
            for kk in k..ed {
                let c = _mm_setr_ps(
                    *rows[0].add(kk),
                    *rows[1].add(kk),
                    *rows[2].add(kk),
                    *rows[3].add(kk),
                );
                *s = _mm_add_ps(*s, _mm_mul_ps(c, _mm_set1_ps(*uq.add(kk))));
            }
        }
        sums
    }

    /// Row logits of `n_rows` contiguous rows against `NQ` questions:
    /// `outs[q][r] = row_r · us[q]`, four rows per [`logit_tile`]; a short
    /// last group repeats its final row to fill the tile and stores only
    /// its valid lanes.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available; `pc` must address `n_rows * ed`
    /// readable floats, each `us[q]` `ed` floats and each `outs[q]`
    /// `n_rows` writable floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn logit_rows<const NQ: usize>(
        pc: *const f32,
        n_rows: usize,
        ed: usize,
        us: [*const f32; NQ],
        outs: [*mut f32; NQ],
    ) {
        let mut r = 0usize;
        while r + 4 <= n_rows {
            let rows = [0, 1, 2, 3].map(|i: usize| pc.add((r + i) * ed));
            let sums = logit_tile::<NQ>(rows, us, ed);
            for (s, o) in sums.iter().zip(&outs) {
                _mm_storeu_ps(o.add(r), *s);
            }
            r += 4;
        }
        if r < n_rows {
            let valid = n_rows - r;
            let rows = [0, 1, 2, 3].map(|i: usize| pc.add((r + i.min(valid - 1)) * ed));
            let sums = logit_tile::<NQ>(rows, us, ed);
            for (s, o) in sums.iter().zip(&outs) {
                let mut lanes = [0.0f32; 4];
                _mm_storeu_ps(lanes.as_mut_ptr(), *s);
                for (i, l) in lanes.iter().enumerate().take(valid) {
                    *o.add(r + i) = *l;
                }
            }
        }
    }

    /// Row-chunk GEMV: the width-1 tile of [`gemm_chunk`], so a lone
    /// question's logits carry the same bits as its column of a batch.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available; operand lengths are checked.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemv_chunk(chunk: &[f32], n_rows: usize, x: &[f32], out: &mut [f32]) {
        let ed = x.len();
        assert!(
            chunk.len() >= n_rows * ed && out.len() >= n_rows,
            "gemv_chunk: short operands"
        );
        logit_rows::<1>(chunk.as_ptr(), n_rows, ed, [x.as_ptr()], [out.as_mut_ptr()]);
    }

    /// Register-tiled chunk GEMM: `out[q * n_rows + r] = chunk_row_r · u_q`.
    ///
    /// Questions run in pairs through the 2-question × 4-row
    /// [`logit_tile`] (eight accumulators in registers, each loaded chunk
    /// row reused across both questions); an odd trailing question runs
    /// the width-1 tile. Every logit is bitwise equal to [`gemv_chunk`]'s.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available; operand lengths are checked.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_chunk(
        chunk: &[f32],
        n_rows: usize,
        us_flat: &[f32],
        nq: usize,
        out: &mut [f32],
    ) {
        if nq == 0 {
            return;
        }
        let ed = us_flat.len() / nq;
        assert!(
            chunk.len() >= n_rows * ed && out.len() >= nq * n_rows,
            "gemm_chunk: short operands"
        );
        let (pc, pu, po) = (chunk.as_ptr(), us_flat.as_ptr(), out.as_mut_ptr());
        let mut q = 0usize;
        while q + 2 <= nq {
            logit_rows::<2>(
                pc,
                n_rows,
                ed,
                [pu.add(q * ed), pu.add((q + 1) * ed)],
                [po.add(q * n_rows), po.add((q + 1) * n_rows)],
            );
            q += 2;
        }
        if q < nq {
            logit_rows::<1>(pc, n_rows, ed, [pu.add(q * ed)], [po.add(q * n_rows)]);
        }
    }

    /// The zero-skip test on a weight: below the threshold. Never true for
    /// a NaN weight or a `-inf` threshold, so `-inf` stands for "no skip".
    #[inline]
    fn skips(w: f32, th: f32) -> bool {
        w < th
    }

    /// One column block of the weighted-sum tile: lanes `k..k + 8 * R` of
    /// every question's accumulator stay in registers while all `n_rows`
    /// rows stream past in order; each loaded out-row slice feeds one FMA
    /// per lane for every question that keeps the row.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available; `pout` must address `n_rows * ed`
    /// readable floats, each `w[q]` `n_rows` readable floats and each
    /// `ws[q]` `ed` writable floats, with `k + 8 * R <= ed`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn weighted_block<const NQ: usize, const R: usize>(
        pout: *const f32,
        ed: usize,
        n_rows: usize,
        k: usize,
        w: [*const f32; NQ],
        th: [f32; NQ],
        ws: [*mut f32; NQ],
    ) {
        let mut acc = [[_mm256_setzero_ps(); R]; NQ];
        for (aq, wsq) in acc.iter_mut().zip(&ws) {
            for (j, a) in aq.iter_mut().enumerate() {
                *a = _mm256_loadu_ps(wsq.add(k + 8 * j));
            }
        }
        for r in 0..n_rows {
            let mut x = [_mm256_setzero_ps(); R];
            for (j, xj) in x.iter_mut().enumerate() {
                *xj = _mm256_loadu_ps(pout.add(r * ed + k + 8 * j));
            }
            for ((aq, wq), tq) in acc.iter_mut().zip(&w).zip(&th) {
                let wr = *wq.add(r);
                if !skips(wr, *tq) {
                    let wv = _mm256_set1_ps(wr);
                    for (a, xj) in aq.iter_mut().zip(&x) {
                        *a = _mm256_fmadd_ps(wv, *xj, *a);
                    }
                }
            }
        }
        for (aq, wsq) in acc.iter().zip(&ws) {
            for (j, a) in aq.iter().enumerate() {
                _mm256_storeu_ps(wsq.add(k + 8 * j), *a);
            }
        }
    }

    /// The weighted-sum tile for `NQ` questions: `R` registers per question
    /// per column block, then single-register blocks, then the scalar lane
    /// tail (`ed % 8` lanes, multiply then add — exactly [`axpy`]'s tail).
    /// Per lane every question sees its kept rows in row order, so the
    /// result is bitwise a row-ordered [`axpy`] loop at any tile width.
    ///
    /// # Safety
    ///
    /// As [`weighted_block`], without the bound on `k`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn weighted_tile<const NQ: usize, const R: usize>(
        pout: *const f32,
        ed: usize,
        n_rows: usize,
        w: [*const f32; NQ],
        th: [f32; NQ],
        ws: [*mut f32; NQ],
    ) {
        let mut k = 0usize;
        while k + 8 * R <= ed {
            weighted_block::<NQ, R>(pout, ed, n_rows, k, w, th, ws);
            k += 8 * R;
        }
        while k + 8 <= ed {
            weighted_block::<NQ, 1>(pout, ed, n_rows, k, w, th, ws);
            k += 8;
        }
        if k < ed {
            for r in 0..n_rows {
                for ((wq, tq), wsq) in w.iter().zip(&th).zip(&ws) {
                    let wr = *wq.add(r);
                    if !skips(wr, *tq) {
                        for kk in k..ed {
                            *wsq.add(kk) += wr * *pout.add(r * ed + kk);
                        }
                    }
                }
            }
        }
    }

    /// AVX2 [`super::weighted_rows_with`]: questions in tiles of up to
    /// [`WEIGHTED_TILE`], eight accumulator registers per tile.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available; operand lengths are checked.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn weighted_rows(
        out_flat: &[f32],
        n_rows: usize,
        weights: &[&[f32]],
        thresholds: &[Option<f32>],
        ws: &mut [&mut [f32]],
    ) {
        let nq = ws.len();
        let Some(ed) = ws.first().map(|w| w.len()) else {
            return;
        };
        assert!(
            out_flat.len() >= n_rows * ed
                && weights.len() >= nq
                && thresholds.len() >= nq
                && weights[..nq].iter().all(|w| w.len() >= n_rows)
                && ws.iter().all(|w| w.len() == ed),
            "weighted_rows: short operands"
        );
        let pout = out_flat.as_ptr();
        let mut q = 0usize;
        while q < nq {
            let g = (nq - q).min(WEIGHTED_TILE);
            let w = |i: usize| weights[q + i].as_ptr();
            let th = |i: usize| thresholds[q + i].unwrap_or(f32::NEG_INFINITY);
            let p = |ws: &mut [&mut [f32]], i: usize| ws[q + i].as_mut_ptr();
            match g {
                4 => weighted_tile::<4, 2>(
                    pout,
                    ed,
                    n_rows,
                    [w(0), w(1), w(2), w(3)],
                    [th(0), th(1), th(2), th(3)],
                    [p(ws, 0), p(ws, 1), p(ws, 2), p(ws, 3)],
                ),
                3 => weighted_tile::<3, 2>(
                    pout,
                    ed,
                    n_rows,
                    [w(0), w(1), w(2)],
                    [th(0), th(1), th(2)],
                    [p(ws, 0), p(ws, 1), p(ws, 2)],
                ),
                2 => weighted_tile::<2, 4>(
                    pout,
                    ed,
                    n_rows,
                    [w(0), w(1)],
                    [th(0), th(1)],
                    [p(ws, 0), p(ws, 1)],
                ),
                _ => weighted_tile::<1, 8>(pout, ed, n_rows, [w(0)], [th(0)], [p(ws, 0)]),
            }
            q += g;
        }
    }

    /// Exponentiates one block of up to eight logits in place (8-lane fast
    /// exp; lanes past `block` are computed but never read), adds the valid
    /// weights lane-wise into the denominator vector `vsum`, and returns
    /// how many fall under `th`. Blocks of eight from the chunk's first row
    /// plus one final [`hsum`] are the one denominator order of the lazy
    /// softmax.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn weigh_block(w: &mut [f32; 8], block: usize, th: f32, vsum: &mut __m256) -> u64 {
        let e = exp8(_mm256_loadu_ps(w.as_ptr()));
        _mm256_storeu_ps(w.as_mut_ptr(), e);
        let valid = _mm256_castsi256_ps(_mm256_cmpgt_epi32(
            _mm256_set1_epi32(block as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        ));
        *vsum = _mm256_add_ps(*vsum, _mm256_and_ps(e, valid));
        let under = _mm256_and_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(e, _mm256_set1_ps(th)), valid);
        u64::from(_mm256_movemask_ps(under).count_ones())
    }

    /// AVX2 [`super::lazy_weights_with`]: [`weigh_block`] over consecutive
    /// blocks of eight.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn lazy_weights(x: &mut [f32], th: f32) -> (f32, u64) {
        let mut vsum = _mm256_setzero_ps();
        let mut skipped = 0u64;
        let mut w = [0.0f32; 8];
        for block in x.chunks_mut(8) {
            w[..block.len()].copy_from_slice(block);
            skipped += weigh_block(&mut w, block.len(), th, &mut vsum);
            block.copy_from_slice(&w[..block.len()]);
        }
        (hsum(vsum), skipped)
    }

    /// AVX2 gather-sum: `out += Σ_j table[tokens[j]]`. Plain 8-lane adds
    /// (no FMA, nothing to fuse), so each output element accumulates the
    /// rows in token order — bitwise identical to [`embed_sum_scalar`].
    /// Rows are fetched through checked slicing, so an out-of-range token
    /// panics exactly like the scalar path instead of reading wild.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn embed_sum(table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
        let po = out.as_mut_ptr();
        for &t in tokens {
            let row = &table[t as usize * ed..][..ed];
            let pr = row.as_ptr();
            let mut k = 0usize;
            while k + 8 <= ed {
                let acc = _mm256_add_ps(_mm256_loadu_ps(po.add(k)), _mm256_loadu_ps(pr.add(k)));
                _mm256_storeu_ps(po.add(k), acc);
                k += 8;
            }
            while k < ed {
                out[k] += row[k];
                k += 1;
            }
        }
    }

    /// AVX2 position-encoded gather-sum. The weight vector for one 8-wide
    /// dimension block is `a_j - ((k+1)/ed) * m_j`, computed with separate
    /// `div`/`mul`/`sub` (every intermediate rounds as the scalar reference
    /// does), and the accumulate is `add(out, mul(w, row))` — not FMA — so
    /// the result is bitwise identical to [`embed_sum_pe_scalar`]. The lane
    /// indices `(k+1)` are carried as exact f32 integers (`+8.0` per block,
    /// exact below 2^24).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn embed_sum_pe(table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
        let nw = tokens.len();
        let po = out.as_mut_ptr();
        let k_base = _mm256_setr_ps(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0);
        let eight = _mm256_set1_ps(8.0);
        for (j, &t) in tokens.iter().enumerate() {
            let row = &table[t as usize * ed..][..ed];
            let pr = row.as_ptr();
            let (aj, mj, edf) = pe_terms(j, nw, ed);
            let va = _mm256_set1_ps(aj);
            let vm = _mm256_set1_ps(mj);
            let ve = _mm256_set1_ps(edf);
            let mut vk = k_base;
            let mut k = 0usize;
            while k + 8 <= ed {
                let w = _mm256_sub_ps(va, _mm256_mul_ps(_mm256_div_ps(vk, ve), vm));
                let acc = _mm256_add_ps(
                    _mm256_loadu_ps(po.add(k)),
                    _mm256_mul_ps(w, _mm256_loadu_ps(pr.add(k))),
                );
                _mm256_storeu_ps(po.add(k), acc);
                vk = _mm256_add_ps(vk, eight);
                k += 8;
            }
            while k < ed {
                let w = aj - ((k + 1) as f32 / edf) * mj;
                out[k] += w * row[k];
                k += 1;
            }
        }
    }

    /// AVX2 fused A/C gather-sum: both embedding tables are walked in one
    /// pass over the tokens, reusing each block's position-weight vector
    /// for the `A` and `C` rows. Same no-FMA accumulation discipline as
    /// [`embed_sum`] / [`embed_sum_pe`], so bitwise identical to
    /// [`embed_pair_scalar`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn embed_pair(
        table_a: &[f32],
        table_c: &[f32],
        ed: usize,
        tokens: &[u32],
        pe: bool,
        out_a: &mut [f32],
        out_c: &mut [f32],
    ) {
        let nw = tokens.len();
        let pa = out_a.as_mut_ptr();
        let pc = out_c.as_mut_ptr();
        let k_base = _mm256_setr_ps(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0);
        let eight = _mm256_set1_ps(8.0);
        for (j, &t) in tokens.iter().enumerate() {
            let ra = &table_a[t as usize * ed..][..ed];
            let rc = &table_c[t as usize * ed..][..ed];
            let (pra, prc) = (ra.as_ptr(), rc.as_ptr());
            let mut k = 0usize;
            if pe {
                let (aj, mj, edf) = pe_terms(j, nw, ed);
                let va = _mm256_set1_ps(aj);
                let vm = _mm256_set1_ps(mj);
                let ve = _mm256_set1_ps(edf);
                let mut vk = k_base;
                while k + 8 <= ed {
                    let w = _mm256_sub_ps(va, _mm256_mul_ps(_mm256_div_ps(vk, ve), vm));
                    let acc_a = _mm256_add_ps(
                        _mm256_loadu_ps(pa.add(k)),
                        _mm256_mul_ps(w, _mm256_loadu_ps(pra.add(k))),
                    );
                    let acc_c = _mm256_add_ps(
                        _mm256_loadu_ps(pc.add(k)),
                        _mm256_mul_ps(w, _mm256_loadu_ps(prc.add(k))),
                    );
                    _mm256_storeu_ps(pa.add(k), acc_a);
                    _mm256_storeu_ps(pc.add(k), acc_c);
                    vk = _mm256_add_ps(vk, eight);
                    k += 8;
                }
                while k < ed {
                    let w = aj - ((k + 1) as f32 / edf) * mj;
                    out_a[k] += w * ra[k];
                    out_c[k] += w * rc[k];
                    k += 1;
                }
            } else {
                while k + 8 <= ed {
                    let acc_a =
                        _mm256_add_ps(_mm256_loadu_ps(pa.add(k)), _mm256_loadu_ps(pra.add(k)));
                    let acc_c =
                        _mm256_add_ps(_mm256_loadu_ps(pc.add(k)), _mm256_loadu_ps(prc.add(k)));
                    _mm256_storeu_ps(pa.add(k), acc_a);
                    _mm256_storeu_ps(pc.add(k), acc_c);
                    k += 8;
                }
                while k < ed {
                    out_a[k] += ra[k];
                    out_c[k] += rc[k];
                    k += 1;
                }
            }
        }
    }

    /// 8-lane polynomial `e^x` — the vector form of [`exp_approx`]; lane
    /// `i` of the result is bitwise identical to `exp_approx(x[i])`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp8(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_CLAMP));
        let x = _mm256_max_ps(x, _mm256_set1_ps(-EXP_CLAMP));
        let n = _mm256_floor_ps(_mm256_fmadd_ps(
            x,
            _mm256_set1_ps(EXP_LOG2E),
            _mm256_set1_ps(0.5),
        ));
        let r = _mm256_fnmadd_ps(
            n,
            _mm256_set1_ps(EXP_C2),
            _mm256_fnmadd_ps(n, _mm256_set1_ps(EXP_C1), x),
        );
        let mut p = _mm256_set1_ps(EXP_P0);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P1));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P4));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P5));
        let p = _mm256_add_ps(
            _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r),
            _mm256_set1_ps(1.0),
        );
        let two_n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(p, two_n)
    }

    /// Replaces each element with `exp_approx(x_i)` and returns the sum.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_slice(x: &mut [f32]) -> f32 {
        let n = x.len();
        let px = x.as_mut_ptr();
        let mut vsum = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let e = exp8(_mm256_loadu_ps(px.add(i)));
            _mm256_storeu_ps(px.add(i), e);
            vsum = _mm256_add_ps(vsum, e);
            i += 8;
        }
        let mut sum = hsum(vsum);
        while i < n {
            x[i] = exp_approx(x[i]);
            sum += x[i];
            i += 1;
        }
        sum
    }

    /// Fused lazy-softmax chunk kernel, in blocks of eight rows: width-1
    /// [`logit_tile`]s, [`weigh_block`], then the block's kept rows folded
    /// into `weighted_sum` by the width-1 [`weighted_tile`]. Bitwise equal
    /// to this question's share of a batched pass. Returns the denominator
    /// contribution and the number of skipped rows.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available; operand lengths are checked.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fused_chunk_lazy(
        in_flat: &[f32],
        out_flat: &[f32],
        n_rows: usize,
        u: &[f32],
        raw_threshold: Option<f32>,
        weighted_sum: &mut [f32],
    ) -> (f32, u64) {
        let ed = u.len();
        assert!(
            in_flat.len() >= n_rows * ed
                && out_flat.len() >= n_rows * ed
                && weighted_sum.len() == ed,
            "fused_chunk_lazy: short operands"
        );
        let th = raw_threshold.unwrap_or(f32::NEG_INFINITY);
        let mut vsum = _mm256_setzero_ps();
        let mut skipped = 0u64;
        let mut w = [0.0f32; 8];
        let mut r = 0usize;
        while r < n_rows {
            let block = (n_rows - r).min(8);
            logit_rows::<1>(
                in_flat.as_ptr().add(r * ed),
                block,
                ed,
                [u.as_ptr()],
                [w.as_mut_ptr()],
            );
            skipped += weigh_block(&mut w, block, th, &mut vsum);
            weighted_tile::<1, 8>(
                out_flat.as_ptr().add(r * ed),
                ed,
                block,
                [w.as_ptr()],
                [th],
                [weighted_sum.as_mut_ptr()],
            );
            r += block;
        }
        (hsum(vsum), skipped)
    }

    /// AVX2 i8 dot product: 32 codes per iteration, each 16-code half
    /// sign-extended to i16 and folded through `madd` (pairs of i16×i16
    /// products summed in i32). Exact integer arithmetic — bitwise
    /// identical to [`dot_i8_scalar`] by associativity.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 32 <= n {
            let va = _mm256_loadu_si256(pa.add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(pb.add(i) as *const __m256i);
            let a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
            let a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
            let b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
            let b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
            i += 32;
        }
        let s = _mm_add_epi32(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256(acc, 1),
        );
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b0100_1110>(s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b1011_0001>(s));
        let mut sum = _mm_cvtsi128_si32(s);
        while i < n {
            sum += a[i] as i32 * b[i] as i32;
            i += 1;
        }
        sum
    }

    /// AVX2 dequantizing weighted accumulate: 8 codes at a time are
    /// sign-extended to i32, converted to f32 (exact), then folded with
    /// separate `mul`/`add` — never FMA — so every element rounds exactly
    /// as [`dequant_axpy_scalar`] does.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dequant_axpy(alpha: f32, q: &[i8], ws: &mut [f32]) {
        let n = q.len().min(ws.len());
        let va = _mm256_set1_ps(alpha);
        let (pq, pw) = (q.as_ptr(), ws.as_mut_ptr());
        let mut k = 0usize;
        while k + 8 <= n {
            let codes = _mm_loadl_epi64(pq.add(k) as *const __m128i);
            let v = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes));
            let acc = _mm256_add_ps(_mm256_loadu_ps(pw.add(k)), _mm256_mul_ps(va, v));
            _mm256_storeu_ps(pw.add(k), acc);
            k += 8;
        }
        while k < n {
            ws[k] += alpha * (q[k] as f32);
            k += 1;
        }
    }

    /// AVX2 quantized row-chunk GEMV: one exact [`dot_i8`] per row plus
    /// the single-rescale epilogue. Bitwise identical to
    /// [`gemv_chunk_i8_scalar`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemv_chunk_i8(
        chunk: &[i8],
        scales: &[f32],
        n_rows: usize,
        uq: &[i8],
        u_scale: f32,
        out: &mut [f32],
    ) {
        let ed = uq.len();
        for r in 0..n_rows {
            let acc = dot_i8(&chunk[r * ed..(r + 1) * ed], uq);
            out[r] = acc as f32 * (u_scale * scales[r]);
        }
    }

    /// AVX2 fused lazy-softmax chunk kernel over quantized memory: blocks
    /// of 8 exact integer inner products, one [`exp8`] per block, then the
    /// per-row threshold test and dequantizing accumulate. Every float op
    /// mirrors [`fused_chunk_lazy_i8_scalar`]'s rounding sequence, so the
    /// two are bitwise identical (see the int8 parity note in the scalar
    /// section).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fused_chunk_lazy_i8(
        in_q: &[i8],
        in_scales: &[f32],
        out_q: &[i8],
        out_scales: &[f32],
        n_rows: usize,
        uq: &[i8],
        u_scale: f32,
        raw_threshold: Option<f32>,
        weighted_sum: &mut [f32],
    ) -> (f32, u64) {
        let ed = uq.len();
        let mut denom = 0.0f32;
        let mut skipped = 0u64;
        let mut w = [0.0f32; 8];
        let mut r = 0usize;
        while r < n_rows {
            let block = (n_rows - r).min(8);
            for (j, wj) in w.iter_mut().enumerate().take(block) {
                let acc = dot_i8(&in_q[(r + j) * ed..(r + j + 1) * ed], uq);
                *wj = acc as f32 * (u_scale * in_scales[r + j]);
            }
            // Exponentiate the whole block at once; lanes past `block`
            // hold stale-but-finite values and are never read back.
            let e = exp8(_mm256_loadu_ps(w.as_ptr()));
            _mm256_storeu_ps(w.as_mut_ptr(), e);
            for (j, &wj) in w.iter().enumerate().take(block) {
                denom += wj;
                match raw_threshold {
                    Some(th) if wj < th => skipped += 1,
                    _ => dequant_axpy(
                        wj * out_scales[r + j],
                        &out_q[(r + j) * ed..(r + j + 1) * ed],
                        weighted_sum,
                    ),
                }
            }
            r += block;
        }
        (denom, skipped)
    }
}

// ---------------------------------------------------------------------------
// Backend-parameterized entry points
// ---------------------------------------------------------------------------
//
// The public `kernels` API dispatches on `backend()`; these `_with`
// variants take the backend explicitly so tests and benchmark harnesses can
// exercise both implementations in one process.

/// [`crate::kernels::dot`] with an explicit backend.
#[inline]
pub fn dot_with(b: Backend, a: &[f32], x: &[f32]) -> f32 {
    match b {
        Backend::Scalar => dot_scalar(a, x),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only reachable after runtime detection
        // (or an explicit override clamped by `Backend::supported`).
        Backend::Avx2 => unsafe { avx2::dot(a, x) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => dot_scalar(a, x),
    }
}

/// [`crate::kernels::axpy`] with an explicit backend.
#[inline]
pub fn axpy_with(b: Backend, alpha: f32, x: &[f32], y: &mut [f32]) {
    match b {
        Backend::Scalar => axpy_scalar(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::axpy(alpha, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => axpy_scalar(alpha, x, y),
    }
}

/// [`crate::kernels::scale`] with an explicit backend.
#[inline]
pub fn scale_with(b: Backend, alpha: f32, x: &mut [f32]) {
    match b {
        Backend::Scalar => scale_scalar(alpha, x),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::scale(alpha, x) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => scale_scalar(alpha, x),
    }
}

/// [`crate::kernels::gemv_chunk`] with an explicit backend.
#[inline]
pub fn gemv_chunk_with(b: Backend, chunk: &[f32], n_rows: usize, x: &[f32], out: &mut [f32]) {
    match b {
        Backend::Scalar => gemv_chunk_scalar(chunk, n_rows, x, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::gemv_chunk(chunk, n_rows, x, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => gemv_chunk_scalar(chunk, n_rows, x, out),
    }
}

/// [`crate::kernels::gemm_chunk`] with an explicit backend: the batched
/// chunk inner product `out[q * n_rows + r] = chunk_row_r · question_q`.
///
/// Every logit is bitwise equal to [`gemv_chunk_with`]'s for the same row
/// and question, on either backend: the scalar reference runs one
/// [`gemv_chunk_scalar`] per question, and AVX2's 2-question × 4-row
/// register tile gives each (question, row) pair the same 8-lane FMA
/// chain, `hsum4` tree and scalar `k`-tail as the width-1 tile.
#[inline]
pub fn gemm_chunk_with(
    b: Backend,
    chunk: &[f32],
    n_rows: usize,
    us_flat: &[f32],
    nq: usize,
    out: &mut [f32],
) {
    match b {
        Backend::Scalar => gemm_chunk_scalar(chunk, n_rows, us_flat, nq, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::gemm_chunk(chunk, n_rows, us_flat, nq, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => gemm_chunk_scalar(chunk, n_rows, us_flat, nq, out),
    }
}

/// Questions per weighted-sum tile in [`weighted_rows_with`]: callers that
/// gather accumulators without allocating do so in groups of this size.
pub const WEIGHTED_TILE: usize = 4;

/// The weighted accumulate of the lazy softmax with an explicit backend:
/// for every question `j`, `ws[j] += Σ_r weights[j][r] · out_row_r` over
/// the `n_rows` rows of `out_flat` (row width `ws[j].len()`), skipping
/// rows whose weight is below `thresholds[j]`.
///
/// Each lane of each accumulator sees its kept rows in row order with one
/// FMA per row on AVX2 (multiply then add on the scalar backend and in the
/// `ed % 8` lane tail) — bitwise a row-ordered [`axpy_with`] loop, whatever
/// the number of questions. AVX2 shares each loaded out-row slice across a
/// tile of up to [`WEIGHTED_TILE`] questions and keeps their accumulators
/// in registers while the rows stream past.
///
/// # Panics
///
/// Panics if an operand is shorter than the shapes imply.
pub fn weighted_rows_with(
    b: Backend,
    out_flat: &[f32],
    n_rows: usize,
    weights: &[&[f32]],
    thresholds: &[Option<f32>],
    ws: &mut [&mut [f32]],
) {
    match b {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`; the kernel checks operand lengths.
        Backend::Avx2 => unsafe { avx2::weighted_rows(out_flat, n_rows, weights, thresholds, ws) },
        _ => {
            for ((w, th), y) in weights.iter().zip(thresholds).zip(ws.iter_mut()) {
                let ed = y.len();
                for (r, &wr) in w[..n_rows].iter().enumerate() {
                    match th {
                        Some(t) if wr < *t => {}
                        _ => axpy_scalar(wr, &out_flat[r * ed..(r + 1) * ed], y),
                    }
                }
            }
        }
    }
}

/// Lazy-softmax weights with an explicit backend: replaces each logit of
/// one question's chunk with `e^{x}` and returns `(Σ e^{x}, rows below
/// raw_threshold)`. AVX2 uses the 8-lane fast exp and sums lane-wise over
/// blocks of eight rows from the chunk's first row, then reduces the eight
/// lanes pairwise; the scalar backend uses libm `exp` and sums in row
/// order. Both are exactly [`fused_chunk_lazy_with`]'s choices, so a
/// batched pass and a lone question agree bit for bit.
pub fn lazy_weights_with(b: Backend, x: &mut [f32], raw_threshold: Option<f32>) -> (f32, u64) {
    let th = raw_threshold.unwrap_or(f32::NEG_INFINITY);
    match b {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::lazy_weights(x, th) },
        _ => {
            let mut denom = 0.0f32;
            let mut skipped = 0u64;
            for v in x.iter_mut() {
                *v = v.exp();
                denom += *v;
                if *v < th {
                    skipped += 1;
                }
            }
            (denom, skipped)
        }
    }
}

/// Exponentiates a slice in place and returns the sum: libm `exp` on the
/// scalar backend, the 8-lane [`exp_approx`] kernel on AVX2.
#[inline]
pub fn exp_slice_with(b: Backend, x: &mut [f32]) -> f32 {
    match b {
        Backend::Scalar => {
            let mut sum = 0.0f32;
            for v in x.iter_mut() {
                *v = v.exp();
                sum += *v;
            }
            sum
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::exp_slice(x) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => {
            let mut sum = 0.0f32;
            for v in x.iter_mut() {
                *v = exp_approx(*v);
                sum += *v;
            }
            sum
        }
    }
}

/// The fused lazy-softmax chunk kernel with an explicit backend: one pass
/// over `n_rows` rows computing `x_i = row_i · u`, `w_i = e^{x_i}`, the
/// denominator `Σ w_i`, and `weighted_sum += w_i · out_row_i` for rows at
/// or above `raw_threshold` (skipped rows still count into the
/// denominator, the paper's zero-skip semantics). Returns
/// `(denominator contribution, skipped rows)`.
///
/// The scalar backend uses libm `exp` — bitwise identical to the two-pass
/// reference path; AVX2 uses the fast exp, so fused-vs-two-pass agreement
/// on that backend is approximate (within [`EXP_MAX_REL_ERROR`] per
/// weight). On either backend the result is bitwise one question's share
/// of a batched pass ([`gemm_chunk_with`], [`lazy_weights_with`],
/// [`weighted_rows_with`]): AVX2 runs the same width-1 logit tile, exp
/// and denominator order, and row-ordered weighted tile, in blocks of
/// eight rows.
///
/// The caller guarantees `in_flat.len() == out_flat.len() == n_rows *
/// u.len()` and `weighted_sum.len() == u.len()`; slice indexing panics
/// otherwise.
pub fn fused_chunk_lazy_with(
    b: Backend,
    in_flat: &[f32],
    out_flat: &[f32],
    n_rows: usize,
    u: &[f32],
    raw_threshold: Option<f32>,
    weighted_sum: &mut [f32],
) -> (f32, u64) {
    debug_assert_eq!(in_flat.len(), n_rows * u.len(), "fused: bad in chunk");
    debug_assert_eq!(out_flat.len(), n_rows * u.len(), "fused: bad out chunk");
    match b {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe {
            avx2::fused_chunk_lazy(in_flat, out_flat, n_rows, u, raw_threshold, weighted_sum)
        },
        _ => {
            let ed = u.len();
            let mut denom = 0.0f32;
            let mut skipped = 0u64;
            for r in 0..n_rows {
                let x = dot_scalar(&in_flat[r * ed..(r + 1) * ed], u);
                let w = x.exp();
                denom += w;
                match raw_threshold {
                    Some(th) if w < th => skipped += 1,
                    _ => axpy_scalar(w, &out_flat[r * ed..(r + 1) * ed], weighted_sum),
                }
            }
            (denom, skipped)
        }
    }
}

/// [`crate::kernels::dot_i8`] with an explicit backend. Exact integer
/// arithmetic: both backends return the same `i32` bit for bit.
#[inline]
pub fn dot_i8_with(b: Backend, a: &[i8], x: &[i8]) -> i32 {
    match b {
        Backend::Scalar => dot_i8_scalar(a, x),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::dot_i8(a, x) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => dot_i8_scalar(a, x),
    }
}

/// [`crate::kernels::gemv_chunk_i8`] with an explicit backend: dequantized
/// logits for one quantized chunk. Bitwise identical across backends (see
/// the int8 parity note).
#[inline]
pub fn gemv_chunk_i8_with(
    b: Backend,
    chunk: &[i8],
    scales: &[f32],
    n_rows: usize,
    uq: &[i8],
    u_scale: f32,
    out: &mut [f32],
) {
    match b {
        Backend::Scalar => gemv_chunk_i8_scalar(chunk, scales, n_rows, uq, u_scale, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::gemv_chunk_i8(chunk, scales, n_rows, uq, u_scale, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => gemv_chunk_i8_scalar(chunk, scales, n_rows, uq, u_scale, out),
    }
}

/// The fused lazy-softmax chunk kernel over quantized memory with an
/// explicit backend — the int8 analogue of [`fused_chunk_lazy_with`], with
/// one difference: **both** backends use the fast exp (`exp_approx`/
/// [`EXP_MAX_REL_ERROR`]), so results are bitwise identical across
/// backends. Logits beyond ±[`EXP_CLAMP`] saturate instead of overflowing
/// (acceptable for quantized logits, whose magnitude the rescale bounds).
///
/// The caller guarantees `in_q.len() == out_q.len() == n_rows * uq.len()`,
/// `in_scales.len() == out_scales.len() == n_rows` and
/// `weighted_sum.len() == uq.len()`; slice indexing panics otherwise.
#[allow(clippy::too_many_arguments)]
pub fn fused_chunk_lazy_i8_with(
    b: Backend,
    in_q: &[i8],
    in_scales: &[f32],
    out_q: &[i8],
    out_scales: &[f32],
    n_rows: usize,
    uq: &[i8],
    u_scale: f32,
    raw_threshold: Option<f32>,
    weighted_sum: &mut [f32],
) -> (f32, u64) {
    debug_assert_eq!(in_q.len(), n_rows * uq.len(), "fused i8: bad in chunk");
    debug_assert_eq!(out_q.len(), n_rows * uq.len(), "fused i8: bad out chunk");
    debug_assert_eq!(in_scales.len(), n_rows, "fused i8: bad in scales");
    debug_assert_eq!(out_scales.len(), n_rows, "fused i8: bad out scales");
    match b {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe {
            avx2::fused_chunk_lazy_i8(
                in_q,
                in_scales,
                out_q,
                out_scales,
                n_rows,
                uq,
                u_scale,
                raw_threshold,
                weighted_sum,
            )
        },
        _ => fused_chunk_lazy_i8_scalar(
            in_q,
            in_scales,
            out_q,
            out_scales,
            n_rows,
            uq,
            u_scale,
            raw_threshold,
            weighted_sum,
        ),
    }
}

/// [`crate::kernels::embed_sum`] with an explicit backend. Zeroes `out`
/// first, so the result *is* the gather-sum (not an accumulation).
///
/// Unlike the inference kernels, both backends are bitwise identical (see
/// the embed section's module comment), so the choice here is purely a
/// performance decision.
#[inline]
pub fn embed_sum_with(b: Backend, table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
    out.fill(0.0);
    match b {
        Backend::Scalar => embed_sum_scalar(table, ed, tokens, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::embed_sum(table, ed, tokens, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => embed_sum_scalar(table, ed, tokens, out),
    }
}

/// [`crate::kernels::embed_sum_pe`] with an explicit backend. Zeroes `out`
/// first. Bitwise identical across backends.
#[inline]
pub fn embed_sum_pe_with(b: Backend, table: &[f32], ed: usize, tokens: &[u32], out: &mut [f32]) {
    out.fill(0.0);
    match b {
        Backend::Scalar => embed_sum_pe_scalar(table, ed, tokens, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe { avx2::embed_sum_pe(table, ed, tokens, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => embed_sum_pe_scalar(table, ed, tokens, out),
    }
}

/// [`crate::kernels::embed_pair`] with an explicit backend. Zeroes both
/// outputs first. Bitwise identical across backends *and* to two separate
/// [`embed_sum_with`] / [`embed_sum_pe_with`] calls.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn embed_pair_with(
    b: Backend,
    table_a: &[f32],
    table_c: &[f32],
    ed: usize,
    tokens: &[u32],
    pe: bool,
    out_a: &mut [f32],
    out_c: &mut [f32],
) {
    out_a.fill(0.0);
    out_c.fill(0.0);
    match b {
        Backend::Scalar => embed_pair_scalar(table_a, table_c, ed, tokens, pe, out_a, out_c),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_with`.
        Backend::Avx2 => unsafe {
            avx2::embed_pair(table_a, table_c, ed, tokens, pe, out_a, out_c)
        },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => embed_pair_scalar(table_a, table_c, ed, tokens, pe, out_a, out_c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_values() {
        assert_eq!(Backend::parse("scalar"), Some(Some(Backend::Scalar)));
        assert_eq!(Backend::parse("AVX2"), Some(Some(Backend::Avx2)));
        assert_eq!(Backend::parse("auto"), Some(None));
        assert_eq!(Backend::parse(""), Some(None));
        assert_eq!(Backend::parse("neon"), None);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Backend::Scalar.label(), "scalar");
        assert_eq!(Backend::Avx2.label(), "avx2");
    }

    #[test]
    fn exp_approx_matches_libm_within_bound() {
        // Sweep the clamped range densely plus awkward points.
        let mut worst = 0.0f64;
        let mut x = -87.0f32;
        while x <= 88.0 {
            let approx = exp_approx(x.min(EXP_CLAMP)) as f64;
            let exact = (x.min(EXP_CLAMP) as f64).exp();
            let rel = ((approx - exact) / exact).abs();
            worst = worst.max(rel);
            x += 0.0173;
        }
        for special in [0.0f32, -0.0, 1.0, -1.0, 80.0, -80.0, f32::MIN_POSITIVE] {
            let rel = ((exp_approx(special) as f64 - (special as f64).exp())
                / (special as f64).exp())
            .abs();
            worst = worst.max(rel);
        }
        assert!(
            worst <= EXP_MAX_REL_ERROR as f64,
            "fast exp max relative error {worst:.3e} exceeds bound {EXP_MAX_REL_ERROR:.1e}"
        );
    }

    #[test]
    fn exp_approx_saturates_beyond_clamp() {
        assert_eq!(exp_approx(500.0), exp_approx(EXP_CLAMP));
        assert_eq!(exp_approx(-500.0), exp_approx(-EXP_CLAMP));
        assert!(exp_approx(500.0).is_finite());
        assert!(exp_approx(-500.0) > 0.0);
    }

    // `set_backend` round-trip behaviour is covered by the dedicated
    // `backend_override` integration binary: it mutates process-global
    // state, which would race with backend-sensitive tests in this binary.

    #[test]
    fn scalar_kernels_match_naive() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.3).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.7).cos()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot_scalar(&a, &b) - naive).abs() < 1e-4);
    }

    fn i8_pattern(n: usize, phase: i64) -> Vec<i8> {
        (0..n)
            .map(|i| (((i as i64 * 37 + phase * 13) % 255) - 127) as i8)
            .collect()
    }

    #[test]
    fn dot_i8_scalar_matches_naive() {
        for n in [0usize, 1, 7, 31, 32, 33, 64, 100, 131] {
            let a = i8_pattern(n, 1);
            let b = i8_pattern(n, 5);
            let naive: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
            assert_eq!(dot_i8_scalar(&a, &b), naive, "n={n}");
        }
    }

    #[test]
    fn i8_kernels_are_bitwise_identical_across_backends() {
        if Backend::detect() != Backend::Avx2 {
            return; // nothing to compare on this CPU
        }
        for &(n_rows, ed) in &[(1usize, 1usize), (3, 7), (8, 32), (17, 33), (20, 64)] {
            let in_q = i8_pattern(n_rows * ed, 2);
            let out_q = i8_pattern(n_rows * ed, 9);
            let uq = i8_pattern(ed, 4);
            let in_scales: Vec<f32> = (0..n_rows).map(|r| 0.01 + r as f32 * 1e-3).collect();
            let out_scales: Vec<f32> = (0..n_rows).map(|r| 0.02 + r as f32 * 7e-4).collect();
            let u_scale = 0.0123f32;

            for r in 0..n_rows {
                let row = &in_q[r * ed..(r + 1) * ed];
                assert_eq!(
                    dot_i8_with(Backend::Scalar, row, &uq),
                    dot_i8_with(Backend::Avx2, row, &uq),
                    "dot_i8 rows={n_rows} ed={ed} r={r}"
                );
            }

            let mut lo_s = vec![0.0f32; n_rows];
            let mut lo_v = vec![0.0f32; n_rows];
            gemv_chunk_i8_with(
                Backend::Scalar,
                &in_q,
                &in_scales,
                n_rows,
                &uq,
                u_scale,
                &mut lo_s,
            );
            gemv_chunk_i8_with(
                Backend::Avx2,
                &in_q,
                &in_scales,
                n_rows,
                &uq,
                u_scale,
                &mut lo_v,
            );
            assert_eq!(lo_s, lo_v, "gemv_chunk_i8 rows={n_rows} ed={ed}");

            for threshold in [None, Some(0.5f32)] {
                let mut ws_s = vec![0.1f32; ed];
                let mut ws_v = vec![0.1f32; ed];
                let (d_s, k_s) = fused_chunk_lazy_i8_with(
                    Backend::Scalar,
                    &in_q,
                    &in_scales,
                    &out_q,
                    &out_scales,
                    n_rows,
                    &uq,
                    u_scale,
                    threshold,
                    &mut ws_s,
                );
                let (d_v, k_v) = fused_chunk_lazy_i8_with(
                    Backend::Avx2,
                    &in_q,
                    &in_scales,
                    &out_q,
                    &out_scales,
                    n_rows,
                    &uq,
                    u_scale,
                    threshold,
                    &mut ws_v,
                );
                assert_eq!(d_s.to_bits(), d_v.to_bits(), "fused i8 denominator");
                assert_eq!(k_s, k_v, "fused i8 skip count");
                for (k, (a, b)) in ws_s.iter().zip(&ws_v).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "fused i8 ws[{k}] rows={n_rows} ed={ed} th={threshold:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_logits_stay_within_published_error_bound() {
        // Embedding-scale data: values in [-1, 1], the regime the serving
        // engine feeds these kernels. The bound is relative to the largest
        // |logit| of the pass (see `I8_LOGIT_MAX_REL_ERROR`), so the chunk
        // must contain query-aligned rows — exactly what a trained memory
        // produces for the supporting facts softmax selects. Each row blends
        // a query-aligned component with a pseudo-random residual.
        let (n_rows, ed) = (64usize, 64usize);
        let u: Vec<f32> = (0..ed).map(|c| ((c * 7) as f32 * 0.211).cos()).collect();
        let rows: Vec<Vec<f32>> = (0..n_rows)
            .map(|r| {
                let align = (r as f32 / n_rows as f32) * 0.9;
                (0..ed)
                    .map(|c| {
                        let noise = ((r * 31 + c * 17) as f32 * 0.113).sin();
                        (align * u[c] + (1.0 - align) * noise).clamp(-1.0, 1.0)
                    })
                    .collect()
            })
            .collect();

        let mut uq = vec![0i8; ed];
        let u_scale = crate::quant::quantize_row(&u, &mut uq);
        let mut in_q = vec![0i8; n_rows * ed];
        let mut in_scales = vec![0.0f32; n_rows];
        for (r, row) in rows.iter().enumerate() {
            in_scales[r] = crate::quant::quantize_row(row, &mut in_q[r * ed..(r + 1) * ed]);
        }

        let mut quant_logits = vec![0.0f32; n_rows];
        gemv_chunk_i8_with(
            backend(),
            &in_q,
            &in_scales,
            n_rows,
            &uq,
            u_scale,
            &mut quant_logits,
        );

        let mut max_abs = 0.0f64;
        let mut max_err = 0.0f64;
        for (r, row) in rows.iter().enumerate() {
            let exact: f64 = row.iter().zip(&u).map(|(&a, &b)| a as f64 * b as f64).sum();
            max_abs = max_abs.max(exact.abs());
            max_err = max_err.max((quant_logits[r] as f64 - exact).abs());
        }
        let rel = max_err / max_abs;
        assert!(
            rel <= I8_LOGIT_MAX_REL_ERROR as f64,
            "quantized logit relative error {rel:.3e} exceeds {I8_LOGIT_MAX_REL_ERROR:.1e}"
        );
    }
}
