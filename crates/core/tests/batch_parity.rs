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
//! Splitting a batch across threads must change nothing either: the
//! threaded legs compare 2, 3 and 8 threads with one, bit for bit, on the
//! same shapes, on routed plans with pruning, and under a deadline.
//!
//! This lives in its own integration binary so forcing the scalar backend
//! cannot race other tests: every test here funnels through
//! [`with_backend`], which serializes on one lock and restores the previous
//! backend even on panic.

use std::sync::Mutex;
use std::time::Duration;

use mnn_tensor::simd::{self, Backend};
use mnn_tensor::Matrix;
use mnnfast::{
    BatchEngine, Budget, ColumnEngine, ColumnOutput, EngineError, MnnFastConfig, Phase, Scratch,
    SegmentMap, SegmentPlan, SkipPolicy, SoftmaxMode, Trace,
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

/// One thread-count leg of the threaded parity checks: runs `engine`'s
/// serving path at `threads` and at one thread, and demands the same
/// bits (outputs and denominators), the same per-question stats, and the
/// same `BatchGemm`/`Skip` trace counts.
fn assert_threads_parity(
    config: MnnFastConfig,
    threads: usize,
    m_in: &Matrix,
    m_out: &Matrix,
    plan: &SegmentPlan<'_>,
    questions: &[Vec<f32>],
) -> Vec<ColumnOutput> {
    let run = |threads: usize| {
        let mut trace = Trace::enabled();
        let budgets = vec![Budget::unlimited(); questions.len()];
        let results = BatchEngine::new(config.with_threads(threads))
            .forward_segmented_budgeted(
                m_in,
                m_out,
                plan,
                questions,
                &mut Scratch::new(),
                &mut trace,
                &budgets,
            )
            .unwrap();
        let outs: Vec<ColumnOutput> = results.into_iter().map(Result::unwrap).collect();
        (outs, trace)
    };
    let (want, want_trace) = run(1);
    let (got, got_trace) = run(threads);
    for (q, (g, w)) in got.iter().zip(&want).enumerate() {
        let what = format!("q{q}, threads {threads}, {config:?}");
        assert_bits(&g.o, &w.o, &what);
        assert_eq!(
            g.denominator.to_bits(),
            w.denominator.to_bits(),
            "denominator drift: {what}"
        );
        assert_eq!(g.stats, w.stats, "stats: {what}");
    }
    for phase in [Phase::BatchGemm, Phase::Skip] {
        assert_eq!(
            got_trace.count(phase),
            want_trace.count(phase),
            "{phase:?} count, threads {threads}, {config:?}"
        );
    }
    got
}

/// Splitting a batched pass across threads changes nothing: each
/// segment's chunks are partitioned into contiguous ranges and every
/// chunk partial folds in global chunk order, so the bits match one
/// thread exactly — every shape, softmax mode, skip policy and backend.
#[test]
fn threaded_batches_are_bitwise_equal_to_one_thread() {
    for backend in backends() {
        with_backend(backend, || {
            for (ns, ed, chunk, nq) in SHAPES {
                let (m_in, m_out, questions) = memories(ns, ed, nq);
                let plan = SegmentPlan::unsegmented(ns);
                for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
                    for skip in [
                        SkipPolicy::None,
                        SkipPolicy::RawWeight(0.9),
                        SkipPolicy::Probability(0.02),
                    ] {
                        let config = MnnFastConfig::new(chunk).with_softmax(mode).with_skip(skip);
                        for threads in [2, 3, 8] {
                            assert_threads_parity(
                                config, threads, &m_in, &m_out, &plan, &questions,
                            );
                        }
                    }
                }
            }
        });
    }
}

/// Routed plans keep their prune decisions at segment boundaries when the
/// segments' chunks are split: on a skewed memory a spiked question prunes
/// the tail while a flat batchmate visits every segment (Online; pruning
/// needs a running max), and on a smooth memory both softmax modes route
/// through the plan — each matching one thread bitwise.
#[test]
fn threaded_routed_batches_prune_and_stay_bitwise() {
    // Row 3 carries the spiked question's attention mass, so once the
    // first segment is folded the rest sit far below its running max.
    let (ns, ed, chunk) = (230, 8, 8);
    let skewed_in = Matrix::from_fn(ns, ed, |r, c| match (r, c) {
        (3, 0) => 12.0,
        (3, _) => 0.01,
        _ => ((r * 7 + c) as f32 * 0.13).sin() * 0.02,
    });
    let skewed_out = Matrix::from_fn(ns, ed, |r, c| ((r + 2 * c) as f32 * 0.09).cos() * 0.5);
    let mut spike = vec![0.0f32; ed];
    spike[0] = 12.0;
    spike[1] = 0.3;
    let flat: Vec<f32> = (0..ed).map(|i| (i as f32 * 0.21).sin() * 0.02).collect();
    let skewed_questions = vec![spike, flat.clone(), flat.iter().map(|x| -x).collect()];
    let (smooth_in, smooth_out, smooth_questions) = memories(ns, ed, 3);
    for backend in backends() {
        with_backend(backend, || {
            for n_segments in [3usize, 8] {
                for prune in [false, true] {
                    for skip in [SkipPolicy::None, SkipPolicy::Probability(0.02)] {
                        let online = MnnFastConfig::new(chunk)
                            .with_softmax(SoftmaxMode::Online)
                            .with_skip(skip);
                        let map = SegmentMap::from_matrix(&skewed_in, ns, n_segments, chunk);
                        let plan = SegmentPlan::routed(&map, prune);
                        for threads in [2, 3, 8] {
                            let outs = assert_threads_parity(
                                online,
                                threads,
                                &skewed_in,
                                &skewed_out,
                                &plan,
                                &skewed_questions,
                            );
                            if prune {
                                assert!(outs[0].stats.segments_pruned > 0, "spike prunes");
                                assert_eq!(outs[1].stats.segments_pruned, 0, "flat visits all");
                            }
                        }
                        let map = SegmentMap::from_matrix(&smooth_in, ns, n_segments, chunk);
                        let plan = SegmentPlan::routed(&map, prune);
                        for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
                            for threads in [2, 3, 8] {
                                assert_threads_parity(
                                    online.with_softmax(mode),
                                    threads,
                                    &smooth_in,
                                    &smooth_out,
                                    &plan,
                                    &smooth_questions,
                                );
                            }
                        }
                    }
                }
            }
        });
    }
}

/// A deadline that expires while a threaded batch runs fails only its own
/// slot, with the typed error; its batchmates carry the bits and stats of
/// an unhurried one-thread pass.
#[test]
fn threaded_batch_deadline_fails_only_its_slot() {
    let (ns, ed, chunk) = (16_384, 64, 64);
    let (m_in, m_out, questions) = memories(ns, ed, 3);
    let config = MnnFastConfig::new(chunk);
    let run = |threads: usize, budgets: &[Budget]| {
        BatchEngine::new(config.with_threads(threads))
            .forward_budgeted(
                &m_in,
                &m_out,
                ns,
                &questions,
                &mut Scratch::new(),
                &mut Trace::disabled(),
                budgets,
            )
            .unwrap()
    };
    for backend in backends() {
        with_backend(backend, || {
            let want = run(
                1,
                &[
                    Budget::unlimited(),
                    Budget::unlimited(),
                    Budget::unlimited(),
                ],
            );
            let budgets = [
                Budget::unlimited(),
                Budget::with_deadline(Duration::from_micros(200)),
                Budget::unlimited(),
            ];
            let got = run(2, &budgets);
            assert!(
                matches!(got[1], Err(EngineError::DeadlineExceeded { .. })),
                "{:?}",
                got[1]
            );
            for q in [0, 2] {
                let (g, w) = (got[q].as_ref().unwrap(), want[q].as_ref().unwrap());
                assert_bits(&g.o, &w.o, &format!("batchmate q{q}, {backend:?}"));
                assert_eq!(g.denominator.to_bits(), w.denominator.to_bits());
                assert_eq!(g.stats, w.stats, "batchmate q{q} stats");
            }
        });
    }
}
