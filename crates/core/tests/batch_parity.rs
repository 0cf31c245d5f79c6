//! Batched == per-question parity on awkward shapes.
//!
//! The batched engine must reproduce the single-question [`ColumnEngine`]
//! bit for bit — with *identical* `rows_skipped` — across Lazy/Online
//! softmax × every skip policy × fused/unfused × the forced-scalar backend,
//! including the shapes that stress kernel edges: `nq = 1` (no 2-question
//! tile), `ns` not a multiple of the chunk, `chunk > ns` (single short
//! chunk), `ed = 1` (no SIMD lanes), and the serving shapes: full 2×4
//! tiles at ed 64, a `k`-tail with an odd question count, and a row count
//! that leaves a padded tile.
//!
//! This lives in its own integration binary so forcing the scalar backend
//! cannot race other tests: every test here funnels through
//! [`with_backend`], which serializes on one lock and restores the previous
//! backend even on panic.

use std::sync::Mutex;

use mnn_tensor::simd::{self, Backend};
use mnn_tensor::Matrix;
use mnnfast::{
    BatchEngine, Budget, ColumnEngine, MnnFastConfig, Scratch, SkipPolicy, SoftmaxMode, Trace,
};

static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the SIMD backend pinned to `b`, restoring the previous
/// backend afterwards (panic-safe via a drop guard).
fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> R {
    struct Restore(Backend);
    impl Drop for Restore {
        fn drop(&mut self) {
            simd::set_backend(self.0);
        }
    }
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore(simd::backend());
    simd::set_backend(b);
    f()
}

/// The backends worth testing on this machine: the auto-detected one plus
/// forced-scalar (identical when the build is already scalar-only).
fn backends() -> Vec<Backend> {
    let active = simd::backend();
    if active == Backend::Scalar {
        vec![Backend::Scalar]
    } else {
        vec![active, Backend::Scalar]
    }
}

fn memories(ns: usize, ed: usize, nq: usize) -> (Matrix, Matrix, Vec<Vec<f32>>) {
    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 3) as f32 * 0.11).sin() * 0.7);
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 5 + c * 7) as f32 * 0.07).cos() * 0.7);
    let questions = (0..nq)
        .map(|q| {
            (0..ed)
                .map(|k| ((q * 11 + k * 2) as f32 * 0.19).sin() * 0.8)
                .collect()
        })
        .collect();
    (m_in, m_out, questions)
}

/// Awkward (ns, ed, chunk, nq) corners: minimal everything, ed = 1, odd nq
/// with a chunked remainder, chunk > ns, ns not a multiple of chunk — then
/// serving-shaped rows: full 2×4 tiles at ed 64, a k-tail (ed 67) with odd
/// nq, and rows % 4 != 0.
const SHAPES: [(usize, usize, usize, usize); 8] = [
    (1, 1, 1, 1),
    (7, 1, 3, 2),
    (5, 4, 8, 3),
    (83, 8, 16, 5),
    (29, 6, 10, 1),
    (259, 64, 64, 8),
    (131, 67, 64, 9),
    (6, 64, 64, 7),
];

/// Asserts `got` and `want` carry exactly the same bits.
fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "bitwise drift: {what}");
}

fn assert_parity(config: MnnFastConfig, m_in: &Matrix, m_out: &Matrix, questions: &[Vec<f32>]) {
    let batched = BatchEngine::new(config)
        .forward(m_in, m_out, questions)
        .unwrap();
    let single = ColumnEngine::new(config);
    for (q, out) in batched.outputs.iter().enumerate() {
        let expect = single.forward(m_in, m_out, &questions[q]).unwrap();
        assert_bits(&out.o, &expect.o, &format!("q{q}, {config:?}"));
        assert_eq!(out.denominator.to_bits(), expect.denominator.to_bits());
        assert_eq!(
            out.stats.rows_skipped, expect.stats.rows_skipped,
            "skip counts must match exactly (q{q}, {config:?})"
        );
        assert_eq!(out.stats.rows_total, expect.stats.rows_total);
    }

    // The budgeted serving path agrees with the one-shot batched path.
    let mut scratch = Scratch::new();
    let mut trace = Trace::disabled();
    let budgets = vec![Budget::unlimited(); questions.len()];
    let results = BatchEngine::new(config)
        .forward_budgeted(
            m_in,
            m_out,
            m_in.rows(),
            questions,
            &mut scratch,
            &mut trace,
            &budgets,
        )
        .unwrap();
    for (r, expect) in results.iter().zip(&batched.outputs) {
        let out = r.as_ref().unwrap();
        assert_bits(
            &out.o,
            &expect.o,
            &format!("budgeted vs one-shot, {config:?}"),
        );
        assert_eq!(out.stats.rows_skipped, expect.stats.rows_skipped);
    }
}

#[test]
fn batched_parity_without_skipping() {
    for backend in backends() {
        with_backend(backend, || {
            for (ns, ed, chunk, nq) in SHAPES {
                let (m_in, m_out, questions) = memories(ns, ed, nq);
                for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
                    for fused in [true, false] {
                        let config = MnnFastConfig::new(chunk)
                            .with_softmax(mode)
                            .with_fused(fused);
                        assert_parity(config, &m_in, &m_out, &questions);
                    }
                }
            }
        });
    }
}

#[test]
fn batched_parity_with_raw_weight_skipping() {
    for backend in backends() {
        with_backend(backend, || {
            for (ns, ed, chunk, nq) in SHAPES {
                let (m_in, m_out, questions) = memories(ns, ed, nq);
                for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
                    for fused in [true, false] {
                        let config = MnnFastConfig::new(chunk)
                            .with_softmax(mode)
                            .with_fused(fused)
                            .with_skip(SkipPolicy::RawWeight(0.9));
                        assert_parity(config, &m_in, &m_out, &questions);
                    }
                }
            }
        });
    }
}

/// The budgeted serving path (what coalesced network batches run through)
/// must be *bitwise* identical to the single-question engine — not merely
/// approximately equal — because a remote client's answer has to carry the
/// same bits whether its question was coalesced or served alone.
#[test]
fn budgeted_serving_is_bitwise_identical_to_single_question() {
    for backend in backends() {
        with_backend(backend, || {
            for (ns, ed, chunk, nq) in SHAPES {
                let (m_in, m_out, questions) = memories(ns, ed, nq);
                for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
                    for fused in [true, false] {
                        for skip in [
                            SkipPolicy::None,
                            SkipPolicy::RawWeight(0.9),
                            SkipPolicy::Probability(0.02),
                        ] {
                            let config = MnnFastConfig::new(chunk)
                                .with_softmax(mode)
                                .with_fused(fused)
                                .with_skip(skip);
                            let mut scratch = Scratch::new();
                            let mut trace = Trace::disabled();
                            let budgets = vec![Budget::unlimited(); nq];
                            let results = BatchEngine::new(config)
                                .forward_budgeted(
                                    &m_in,
                                    &m_out,
                                    m_in.rows(),
                                    &questions,
                                    &mut scratch,
                                    &mut trace,
                                    &budgets,
                                )
                                .unwrap();
                            let single = ColumnEngine::new(config);
                            for (q, r) in results.iter().enumerate() {
                                let out = r.as_ref().unwrap();
                                let expect = single.forward(&m_in, &m_out, &questions[q]).unwrap();
                                let got: Vec<u32> = out.o.iter().map(|v| v.to_bits()).collect();
                                let want: Vec<u32> = expect.o.iter().map(|v| v.to_bits()).collect();
                                assert_eq!(
                                    got, want,
                                    "bitwise drift (q{q}, {backend:?}, {config:?})"
                                );
                                assert_eq!(
                                    out.denominator.to_bits(),
                                    expect.denominator.to_bits(),
                                    "denominator drift (q{q}, {backend:?}, {config:?})"
                                );
                                assert_eq!(out.stats.rows_skipped, expect.stats.rows_skipped);
                            }
                        }
                    }
                }
            }
        });
    }
}

#[test]
fn batched_parity_with_probability_skipping() {
    for backend in backends() {
        with_backend(backend, || {
            for (ns, ed, chunk, nq) in SHAPES {
                let (m_in, m_out, questions) = memories(ns, ed, nq);
                for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
                    for fused in [true, false] {
                        let config = MnnFastConfig::new(chunk)
                            .with_softmax(mode)
                            .with_fused(fused)
                            .with_skip(SkipPolicy::Probability(0.02));
                        assert_parity(config, &m_in, &m_out, &questions);
                    }
                }
            }
        });
    }
}
