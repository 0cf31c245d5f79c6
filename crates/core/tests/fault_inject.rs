//! Panic containment in the scale-out engine, driven by the `mnn-tensor`
//! fault-injection hook (cargo feature `fault-inject`).
//!
//! A worker thread that panics mid-chunk must not take the process down:
//! the [`ParallelEngine`] contains the panic with `catch_unwind`, abandons
//! the pass, and surfaces [`EngineError::WorkerPanicked`] so the serving
//! layer can degrade through its retry ladder. The engine must stay
//! usable afterwards — the scratch buffers a panicking pass abandoned are
//! reset by the next pass, bitwise-identically to a never-faulted run.
//!
//! Each test arms a process-global fault, so the whole file serializes on
//! one mutex and disarms before releasing it.

#![cfg(feature = "fault-inject")]

use mnn_tensor::fault::{self, FaultKind};
use mnn_tensor::{Matrix, QuantMatrix};
use mnnfast::{
    BatchEngine, Budget, EngineError, EngineKind, ExecPlan, Executor, MnnFastConfig, Scratch,
    SegmentPlan, SoftmaxMode, Trace,
};
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the default panic hook silenced, so the injected worker
/// panics don't spray backtraces over the test output. Safe under the
/// SERIAL lock: this integration-test binary runs nothing else.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

fn memories(ns: usize, ed: usize, seed: u64) -> (Matrix, Matrix, Vec<f32>) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    };
    let m_in = Matrix::from_fn(ns, ed, |_, _| next());
    let m_out = Matrix::from_fn(ns, ed, |_, _| next());
    let u: Vec<f32> = (0..ed).map(|_| next()).collect();
    (m_in, m_out, u)
}

fn quantize(m: &Matrix) -> QuantMatrix {
    let mut q = QuantMatrix::with_capacity(m.rows(), m.cols());
    for r in 0..m.rows() {
        q.push_row(m.row(r));
    }
    q
}

#[test]
fn panicking_worker_surfaces_worker_panicked_and_engine_recovers() {
    let _guard = lock();
    let (m_in, m_out, u) = memories(96, 8, 23);
    for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        let config = MnnFastConfig::new(8).with_threads(3).with_softmax(mode);
        let parallel = ExecPlan::new(config)
            .with_kind(EngineKind::Parallel)
            .executor();
        let column = ExecPlan::new(config)
            .with_kind(EngineKind::Column)
            .executor();
        let mut scratch = Scratch::new();
        let mut trace = Trace::disabled();

        fault::arm(FaultKind::PanicChunk, 0, 1);
        let err = with_quiet_panics(|| {
            parallel.forward_prefix_budgeted(
                &m_in,
                &m_out,
                96,
                &u,
                &mut scratch,
                &mut trace,
                &Budget::unlimited(),
            )
        })
        .unwrap_err();
        let fires = fault::fired();
        fault::disarm();
        assert_eq!(err, EngineError::WorkerPanicked, "{mode:?}");
        assert_eq!(fires, 1, "exactly one chunk kernel panicked");

        // The engine and the very same scratch stay serviceable: the next
        // pass is bitwise identical to the sequential reference.
        let reference = column
            .forward_prefix_budgeted(
                &m_in,
                &m_out,
                96,
                &u,
                &mut Scratch::new(),
                &mut trace,
                &Budget::unlimited(),
            )
            .unwrap();
        let retry = parallel
            .forward_prefix_budgeted(
                &m_in,
                &m_out,
                96,
                &u,
                &mut scratch,
                &mut trace,
                &Budget::unlimited(),
            )
            .unwrap();
        let same = retry
            .o
            .iter()
            .zip(&reference.o)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{mode:?}: post-panic pass must match the reference");
    }
}

#[test]
fn panicking_worker_on_the_quant_plane_restores_the_scratch() {
    let _guard = lock();
    let (m_in, m_out, u) = memories(80, 8, 41);
    let (q_in, q_out) = (quantize(&m_in), quantize(&m_out));
    let plan = SegmentPlan::unsegmented(80);
    let config = MnnFastConfig::new(8).with_threads(2);
    let parallel = ExecPlan::new(config)
        .with_kind(EngineKind::Parallel)
        .executor();
    let column = ExecPlan::new(config)
        .with_kind(EngineKind::Column)
        .executor();
    let mut scratch = Scratch::new();
    let mut trace = Trace::disabled();

    fault::arm(FaultKind::PanicChunk, 0, 1);
    let err = with_quiet_panics(|| {
        parallel.forward_quant_segmented_budgeted(
            &q_in,
            &q_out,
            &plan,
            &u,
            &mut scratch,
            &mut trace,
            &Budget::unlimited(),
        )
    })
    .unwrap_err();
    fault::disarm();
    assert_eq!(err, EngineError::WorkerPanicked);

    // The early return restored the quantized-query buffer into the
    // scratch, so the retry on the same scratch matches the sequential
    // quantized reference bit for bit.
    let reference = column
        .forward_quant_segmented_budgeted(
            &q_in,
            &q_out,
            &plan,
            &u,
            &mut Scratch::new(),
            &mut trace,
            &Budget::unlimited(),
        )
        .unwrap();
    let retry = parallel
        .forward_quant_segmented_budgeted(
            &q_in,
            &q_out,
            &plan,
            &u,
            &mut scratch,
            &mut trace,
            &Budget::unlimited(),
        )
        .unwrap();
    let same = retry
        .o
        .iter()
        .zip(&reference.o)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "post-panic quant pass must match the reference");
}

#[test]
fn panicking_batched_worker_surfaces_worker_panicked() {
    let _guard = lock();
    let (m_in, m_out, u) = memories(96, 8, 57);
    let questions: Vec<Vec<f32>> = (0..3)
        .map(|q| u.iter().map(|x| x * (1.0 + q as f32 * 0.25)).collect())
        .collect();
    for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        let config = MnnFastConfig::new(8).with_threads(2).with_softmax(mode);
        let engine = BatchEngine::new(config);

        fault::arm(FaultKind::PanicChunk, 0, 1);
        let err = with_quiet_panics(|| engine.forward(&m_in, &m_out, &questions)).unwrap_err();
        let fires = fault::fired();
        fault::disarm();
        assert_eq!(err, EngineError::WorkerPanicked, "{mode:?}");
        assert_eq!(fires, 1, "exactly one batched chunk panicked");

        // The engine stays usable: the next pass answers every question.
        let out = engine.forward(&m_in, &m_out, &questions).unwrap();
        assert_eq!(out.outputs.len(), questions.len());
    }
}

#[test]
fn slow_chunk_in_a_threaded_batch_fails_only_the_expired_slot() {
    let _guard = lock();
    let (m_in, m_out, u) = memories(96, 8, 59);
    let questions: Vec<Vec<f32>> = (0..3)
        .map(|q| u.iter().map(|x| x * (1.0 - q as f32 * 0.2)).collect())
        .collect();
    for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        let config = MnnFastConfig::new(8).with_softmax(mode);
        let want = BatchEngine::new(config)
            .forward(&m_in, &m_out, &questions)
            .unwrap();

        // The third chunk either thread runs sleeps past the middle
        // question's deadline, so the next budget check on that thread
        // kills it mid-pass.
        fault::arm(FaultKind::SlowChunk(Duration::from_millis(60)), 2, 1);
        let budgets = [
            Budget::unlimited(),
            Budget::with_deadline(Duration::from_millis(30)),
            Budget::unlimited(),
        ];
        let got = BatchEngine::new(config.with_threads(2))
            .forward_budgeted(
                &m_in,
                &m_out,
                m_in.rows(),
                &questions,
                &mut Scratch::new(),
                &mut Trace::disabled(),
                &budgets,
            )
            .unwrap();
        let fires = fault::fired();
        fault::disarm();
        assert_eq!(fires, 1, "{mode:?}");
        assert!(
            matches!(got[1], Err(EngineError::DeadlineExceeded { .. })),
            "{mode:?}: {:?}",
            got[1]
        );
        for q in [0, 2] {
            let (g, w) = (got[q].as_ref().unwrap(), &want.outputs[q]);
            let same =
                g.o.iter()
                    .zip(&w.o)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{mode:?}: batchmate q{q} drifted");
            assert_eq!(g.denominator.to_bits(), w.denominator.to_bits());
            assert_eq!(g.stats, w.stats, "{mode:?}: batchmate q{q} stats");
        }
    }
}
