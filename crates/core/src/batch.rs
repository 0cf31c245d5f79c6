//! Batched column-based inference: many questions per chunk pass.
//!
//! [`crate::ColumnEngine::forward_batch`] answers questions one at a time,
//! re-streaming the memories per question. The batched engine exploits the
//! chunk residency the column-based algorithm creates: each chunk of
//! `M_IN`/`M_OUT` is loaded once and applied to *all* `nq` questions while
//! resident. The inner products run as the register-tiled GEMM `U × chunkᵀ`
//! ([`mnn_tensor::kernels::gemm_chunk`], the paper's GPU formulation —
//! Section 4.1.2: "Inner product is matrix multiplication between M_IN and
//! U") and, when [`MnnFastConfig::fused`] is set, exponentiation, zero-skip
//! and the weighted accumulate run in the same pass over the resident tile
//! (`accumulate_chunk_batch` in `mnn_tensor::softmax`).
//!
//! Scale-out follows Section 3.1: chunks are independent and only the
//! `O(ed)` merge is shared. With [`MnnFastConfig::threads`] above one, each
//! visited segment's chunks are split into contiguous, chunk-aligned
//! ranges. The calling thread runs the first range and folds it straight
//! into the running accumulators; scoped helper threads fill one chunk
//! partial per (chunk, live question) into staging slots the [`Scratch`]
//! reuses; after the join the caller folds the staged partials in global
//! chunk order. That is the fold the sequential pass performs, so answers
//! are bitwise identical at any thread count.
//!
//! Instrumentation counts the shared work once: the chunk GEMM is charged to
//! the batch as one [`mnn_tensor::kernels::gemm_flops`] count (not `nq`
//! separate GEMV estimates) and each memory chunk's `memory_bytes` once per
//! batch, while per-question outputs carry their own share.
//!
//! Two entry points:
//! * [`BatchEngine::forward`] — one-shot convenience over the whole store
//!   (the serving path with unlimited budgets and a fresh arena).
//! * [`BatchEngine::forward_budgeted`] — the serving path: reuses a
//!   [`Scratch`] arena (the warm sequential path performs no per-chunk or
//!   per-question buffer allocations), records the [`Phase::BatchGemm`]
//!   trace phase, and gives every question its own [`Budget`] so one
//!   expired deadline or cancelled request fails *that* slot while its
//!   batchmates finish.

use crate::budget::Budget;
use crate::config::{MnnFastConfig, SkipPolicy, SoftmaxMode};
use crate::engine::{
    check_denom, check_output, check_rows, check_rows_quant, AccumMut, ColumnEngine, ColumnOutput,
    EngineError,
};
use crate::exec::{Phase, Scratch, Trace};
use crate::segment::{self, SegmentPlan};
use crate::stats::InferenceStats;
use mnn_tensor::softmax::{LazyAccumulator, OnlineSoftmax};
use mnn_tensor::{kernels, Matrix, QuantMatrix};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};

/// Batched column-based engine.
///
/// Produces results bitwise identical to running [`ColumnEngine`] per
/// question (single-threaded), while streaming the memories once per
/// *batch* instead of once per question.
///
/// ```
/// use mnn_tensor::Matrix;
/// use mnnfast::{batch::BatchEngine, ColumnEngine, MnnFastConfig};
///
/// let m_in = Matrix::from_fn(50, 4, |r, c| ((r + c) as f32 * 0.1).sin());
/// let m_out = m_in.clone();
/// let questions: Vec<Vec<f32>> = (0..3).map(|q| vec![q as f32 * 0.1; 4]).collect();
/// let config = MnnFastConfig::new(10);
///
/// let batched = BatchEngine::new(config).forward(&m_in, &m_out, &questions).unwrap();
/// let single = ColumnEngine::new(config).forward(&m_in, &m_out, &questions[0]).unwrap();
/// for (a, b) in batched.outputs[0].o.iter().zip(&single.o) {
///     assert_eq!(a.to_bits(), b.to_bits());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchEngine {
    config: MnnFastConfig,
}

/// Result of a batched forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutput {
    /// Per-question outputs, in question order.
    pub outputs: Vec<ColumnOutput>,
    /// Batch-level counters: the memories count once, not per question.
    pub stats: InferenceStats,
}

/// One helper thread's reusable arena for a split batched pass: its live
/// mask, logits tile, skip counters, per-question stats and trace, plus
/// the staged chunk partials (`nq` per chunk, chunk-major).
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchLane {
    live: Vec<bool>,
    logits: Vec<f32>,
    skipped: Vec<u64>,
    stats: Vec<InferenceStats>,
    trace: Trace,
    lazy: Vec<LazyAccumulator>,
    online: Vec<OnlineSoftmax>,
    /// Chunks the last pass staged.
    used: usize,
}

/// Per-question budget-failure marks that every thread of one batched
/// pass reads and sets: a question that fails its budget on one thread is
/// dropped by its peers at their next chunk. The marks (like the pass's
/// abort flag) publish no other data, so `Relaxed` suffices; the caller
/// reads them after the scope's join, which orders every thread's stores.
#[derive(Debug, Default)]
pub(crate) struct DeadMarks(Vec<AtomicBool>);

impl Clone for DeadMarks {
    fn clone(&self) -> Self {
        DeadMarks(
            self.0
                .iter()
                .map(|d| AtomicBool::new(d.load(Ordering::Relaxed)))
                .collect(),
        )
    }
}

impl DeadMarks {
    /// One mark per question, set where `live` is not.
    fn reset(&mut self, live: &[bool]) {
        self.0.clear();
        self.0.extend(live.iter().map(|&l| AtomicBool::new(!l)));
    }

    fn is_dead(&self, q: usize) -> bool {
        self.0[q].load(Ordering::Relaxed)
    }

    fn kill(&self, q: usize) {
        self.0[q].store(true, Ordering::Relaxed);
    }
}

/// The two softmax accumulators behind the one batched chunk loop.
trait BatchSoftmax: Default + Send {
    /// This mode's slots out of a (lazy, online) pair of arenas.
    fn slots<'s>(
        lazy: &'s mut Vec<LazyAccumulator>,
        online: &'s mut Vec<OnlineSoftmax>,
    ) -> &'s mut Vec<Self>;
    fn reset_to(&mut self, ed: usize);
    /// One tiled accumulate of a resident chunk into every live question's
    /// partial (`fused` selects the lazy fast-exp arithmetic; online
    /// ignores it).
    #[allow(clippy::too_many_arguments)]
    fn accumulate_tile(
        partials: &mut [Self],
        in_flat: &[f32],
        out_flat: &[f32],
        n: usize,
        us: &[f32],
        thresholds: &[Option<f32>],
        live: &[bool],
        fused: bool,
        logits: &mut [f32],
        skipped: &mut [u64],
    );
    /// Folds a chunk partial into a running accumulator (the merge plane).
    fn fold(&mut self, partial: &Self);
    /// The running max zone-map pruning tests against; `None` in lazy
    /// mode, which has none until the division and so never prunes.
    fn running_max(&self) -> Option<f32>;
    fn wire_roundtrip(&self) -> Self;
    fn denominator(&self) -> f32;
    fn finish(&self, out: &mut Vec<f32>);
}

impl BatchSoftmax for LazyAccumulator {
    fn slots<'s>(
        lazy: &'s mut Vec<LazyAccumulator>,
        _: &'s mut Vec<OnlineSoftmax>,
    ) -> &'s mut Vec<Self> {
        lazy
    }
    fn reset_to(&mut self, ed: usize) {
        self.reset(ed);
    }
    fn accumulate_tile(
        partials: &mut [Self],
        in_flat: &[f32],
        out_flat: &[f32],
        n: usize,
        us: &[f32],
        thresholds: &[Option<f32>],
        live: &[bool],
        fused: bool,
        logits: &mut [f32],
        skipped: &mut [u64],
    ) {
        LazyAccumulator::accumulate_chunk_batch(
            partials, in_flat, out_flat, n, us, thresholds, live, fused, logits, skipped,
        );
    }
    fn fold(&mut self, partial: &Self) {
        mnn_tensor::partial::merge_lazy_into(self, partial);
    }
    fn running_max(&self) -> Option<f32> {
        None
    }
    fn wire_roundtrip(&self) -> Self {
        mnn_tensor::partial::roundtrip_lazy(self)
    }
    fn denominator(&self) -> f32 {
        self.denom()
    }
    fn finish(&self, out: &mut Vec<f32>) {
        self.finish_into(out);
    }
}

impl BatchSoftmax for OnlineSoftmax {
    fn slots<'s>(
        _: &'s mut Vec<LazyAccumulator>,
        online: &'s mut Vec<OnlineSoftmax>,
    ) -> &'s mut Vec<Self> {
        online
    }
    fn reset_to(&mut self, ed: usize) {
        self.reset(ed);
    }
    fn accumulate_tile(
        partials: &mut [Self],
        in_flat: &[f32],
        out_flat: &[f32],
        n: usize,
        us: &[f32],
        thresholds: &[Option<f32>],
        live: &[bool],
        _fused: bool,
        logits: &mut [f32],
        skipped: &mut [u64],
    ) {
        OnlineSoftmax::accumulate_chunk_batch(
            partials, in_flat, out_flat, n, us, thresholds, live, logits, skipped,
        );
    }
    fn fold(&mut self, partial: &Self) {
        mnn_tensor::partial::merge_online_into(self, partial);
    }
    fn running_max(&self) -> Option<f32> {
        Some(self.max_logit())
    }
    fn wire_roundtrip(&self) -> Self {
        mnn_tensor::partial::roundtrip_online(self)
    }
    fn denominator(&self) -> f32 {
        self.denom()
    }
    fn finish(&self, out: &mut Vec<f32>) {
        self.finish_into(out);
    }
}

/// What every thread of one batched pass reads.
struct ChunkInputs<'a> {
    m_in: &'a Matrix,
    m_out: &'a Matrix,
    us: &'a [f32],
    thresholds: &'a [Option<f32>],
    budgets: &'a [Budget],
    dead: &'a DeadMarks,
    /// Set when a thread panicked: its peers stop at their next chunk.
    abort: &'a AtomicBool,
    chunk: usize,
    ed: usize,
    fused: bool,
}

/// One thread's working set: the questions it still serves in this
/// segment, its logits tile and skip counters, and where its per-question
/// stats and phase times go.
struct Lane<'a> {
    live: &'a mut [bool],
    logits: &'a mut [f32],
    skipped: &'a mut [u64],
    stats: &'a mut [InferenceStats],
    trace: &'a mut Trace,
}

/// Where a thread puts each chunk's partials.
enum Sink<'a, A> {
    /// Fold them into the running accumulators at once (the sequential
    /// pass, and the caller's range of a split one).
    Fold {
        partials: &'a mut [A],
        running: &'a mut [A],
    },
    /// Keep them, `nq` per chunk, for the caller's in-order fold.
    Stage(&'a mut Vec<A>),
}

/// Runs the chunks of rows `[start, end)` for the lane's live questions
/// and returns how many it ran. Each live question's budget is checked
/// once per chunk; a failure marks it dead for every thread. Each chunk
/// is streamed once and applied to every live question while resident:
/// one tiled accumulate fills a fresh partial per question, which `sink`
/// folds or stages — the single-question engine's discipline, so the
/// tiles give each question the bits its lone pass would compute (see
/// `mnn_tensor::simd`).
fn run_chunks<A: BatchSoftmax>(
    inp: &ChunkInputs<'_>,
    lane: &mut Lane<'_>,
    mut sink: Sink<'_, A>,
    start: usize,
    end: usize,
) -> usize {
    let nq = lane.live.len();
    let ed = inp.ed;
    let mut row = start;
    let mut idx = 0;
    while row < end && !inp.abort.load(Ordering::Relaxed) {
        let mut n_live = 0u64;
        for (q, live) in lane.live.iter_mut().enumerate() {
            if !*live {
                continue;
            }
            if inp.dead.is_dead(q) || inp.budgets[q].check().is_err() {
                inp.dead.kill(q);
                *live = false;
            } else {
                n_live += 1;
            }
        }
        if n_live == 0 {
            break;
        }
        let n = inp.chunk.min(end - row);
        let partials: &mut [A] = match &mut sink {
            Sink::Fold { partials, .. } => partials,
            Sink::Stage(slots) => {
                if slots.len() < (idx + 1) * nq {
                    slots.resize_with((idx + 1) * nq, A::default);
                }
                &mut slots[idx * nq..(idx + 1) * nq]
            }
        };
        for (p, _) in partials
            .iter_mut()
            .zip(lane.live.iter())
            .filter(|(_, l)| **l)
        {
            p.reset_to(ed);
        }
        lane.skipped.fill(0);
        let t0 = lane.trace.begin();
        A::accumulate_tile(
            partials,
            inp.m_in.rows_slice(row, n),
            inp.m_out.rows_slice(row, n),
            n,
            inp.us,
            inp.thresholds,
            lane.live,
            inp.fused,
            lane.logits,
            lane.skipped,
        );
        if let Sink::Fold { partials, running } = &mut sink {
            for ((run, p), _) in running
                .iter_mut()
                .zip(partials.iter())
                .zip(lane.live.iter())
                .filter(|(_, l)| **l)
            {
                run.fold(p);
            }
        }
        lane.trace.record(Phase::BatchGemm, t0, n as u64 * n_live);
        let mut chunk_skipped = 0u64;
        for q in (0..nq).filter(|&q| lane.live[q]) {
            let d = lane.skipped[q];
            chunk_skipped += d;
            let kept = n as u64 - d;
            let s = &mut lane.stats[q];
            s.chunks += 1;
            s.rows_total += n as u64;
            s.rows_skipped += d;
            s.flops += n as u64 + kept * 2 * ed as u64;
            s.ws_flops += kept * 2 * ed as u64;
            s.flops_skipped += d * 2 * ed as u64;
        }
        lane.trace.bump(Phase::Skip, chunk_skipped);
        row += n;
        idx += 1;
    }
    idx
}

/// Runs `f`, turning a panic into `false` and telling the peers to stop.
fn contain(abort: &AtomicBool, f: impl FnOnce()) -> bool {
    let ok = std::panic::catch_unwind(AssertUnwindSafe(f)).is_ok();
    if !ok {
        abort.store(true, Ordering::Relaxed);
    }
    ok
}

/// Runs the segment `[start, end)` split into `threads` contiguous,
/// chunk-aligned ranges. The caller (`main`) runs the first range and
/// folds it straight into `running`; scoped helpers stage theirs in
/// `lanes`; after the join the caller folds the staged partials in
/// global chunk order and absorbs the helpers' stats and phase times.
///
/// # Errors
///
/// [`EngineError::WorkerPanicked`] when any thread panicked (its peers
/// stop at their next chunk; the next pass resets the arena).
#[allow(clippy::too_many_arguments)]
fn split_segment<A: BatchSoftmax>(
    inp: &ChunkInputs<'_>,
    main: &mut Lane<'_>,
    partials: &mut [A],
    running: &mut [A],
    lanes: &mut Vec<BatchLane>,
    start: usize,
    end: usize,
    threads: usize,
) -> Result<(), EngineError> {
    let nq = main.live.len();
    let per = (end - start).div_ceil(inp.chunk).div_ceil(threads) * inp.chunk;
    let helpers = (end - start).div_ceil(per) - 1;
    if lanes.len() < helpers {
        lanes.resize_with(helpers, BatchLane::default);
    }
    let lanes = &mut lanes[..helpers];
    for lane in lanes.iter_mut() {
        lane.live.clear();
        lane.live.extend_from_slice(main.live);
        if lane.logits.len() < main.logits.len() {
            lane.logits.resize(main.logits.len(), 0.0);
        }
        lane.skipped.resize(nq, 0);
        lane.stats.clear();
        lane.stats.resize(nq, InferenceStats::default());
        lane.trace = if main.trace.is_enabled() {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        lane.used = 0;
    }

    let ok = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(i, lane)| {
                let from = start + (i + 1) * per;
                let to = (from + per).min(end);
                s.spawn(move || {
                    contain(inp.abort, || {
                        let BatchLane {
                            live,
                            logits,
                            skipped,
                            stats,
                            trace,
                            lazy,
                            online,
                            used,
                        } = lane;
                        let mut lane = Lane {
                            live,
                            logits,
                            skipped,
                            stats,
                            trace,
                        };
                        *used = run_chunks(
                            inp,
                            &mut lane,
                            Sink::Stage(A::slots(lazy, online)),
                            from,
                            to,
                        );
                    })
                })
            })
            .collect();
        let caller = contain(inp.abort, || {
            run_chunks(
                inp,
                &mut *main,
                Sink::Fold {
                    partials: &mut *partials,
                    running: &mut *running,
                },
                start,
                start + per,
            );
        });
        handles
            .into_iter()
            .fold(caller, |ok, h| h.join().unwrap_or(false) && ok)
    });
    if !ok {
        return Err(EngineError::WorkerPanicked);
    }

    // The caller's range is already folded; every later chunk follows in
    // global order. A question still live here ran in every chunk of the
    // segment, so each of its staged slots is filled.
    let t0 = main.trace.begin();
    let mut merged = 0u64;
    for lane in lanes.iter_mut() {
        let staged = A::slots(&mut lane.lazy, &mut lane.online);
        for c in 0..lane.used {
            for q in (0..nq).filter(|&q| main.live[q] && !inp.dead.is_dead(q)) {
                running[q].fold(&staged[c * nq + q]);
                merged += 1;
            }
        }
    }
    main.trace.record(Phase::Merge, t0, merged);
    for lane in lanes.iter() {
        main.trace.absorb(&lane.trace);
        for (dst, src) in main.stats.iter_mut().zip(&lane.stats) {
            dst.merge(src);
        }
    }
    Ok(())
}

impl BatchEngine {
    /// Creates a batched engine.
    pub fn new(config: MnnFastConfig) -> Self {
        Self { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> MnnFastConfig {
        self.config
    }

    /// Answers all `questions` with one streaming pass over the memories:
    /// [`BatchEngine::forward_budgeted`] over every row with unlimited
    /// budgets and a fresh arena, plus batch-level counters.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on invalid configuration or mismatched
    /// shapes, [`EngineError::WorkerPanicked`] when a scale-out thread
    /// panics, and the first question's [`EngineError::NumericFault`] when
    /// any answer is non-finite. [`SkipPolicy::Probability`] is resolved
    /// per question with the same two-pass semantics as the
    /// single-question engine.
    pub fn forward(
        &self,
        m_in: &Matrix,
        m_out: &Matrix,
        questions: &[Vec<f32>],
    ) -> Result<BatchOutput, EngineError> {
        let nq = questions.len();
        let budgets = vec![Budget::unlimited(); nq];
        let outputs = self
            .forward_budgeted(
                m_in,
                m_out,
                m_in.rows(),
                questions,
                &mut Scratch::new(),
                &mut Trace::disabled(),
                &budgets,
            )?
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;

        // Batch-level counters: every chunk of both planes is streamed once
        // for the whole batch (the Probability pre-pass streams `M_IN` once
        // more), and each chunk GEMM counts once, not as `nq` GEMVs.
        let ns = m_in.rows();
        let ed = questions.first().map_or(0, Vec::len);
        let mut stats = InferenceStats::default();
        let plane_bytes = (ns * ed * 4) as u64;
        let gemm = kernels::gemm_flops(ns, ed, nq);
        stats.memory_bytes = 2 * plane_bytes;
        stats.flops = gemm;
        if matches!(self.config.skip, SkipPolicy::Probability(_)) {
            stats.memory_bytes += plane_bytes;
            stats.flops += gemm + (nq * ns) as u64;
        }
        stats.intermediate_bytes =
            (nq * self.config.chunk_size.min(ns.max(1)) * 4 + nq * ed * 4) as u64;
        for out in &outputs {
            let s = &out.stats;
            stats.rows_total += s.rows_total;
            stats.rows_skipped += s.rows_skipped;
            // Row exps plus kept weighted sums; the GEMV share and the
            // division are the per-question view of work counted above.
            stats.flops += s.rows_total + s.ws_flops;
            stats.ws_flops += s.ws_flops;
            stats.flops_skipped += s.flops_skipped;
            stats.divisions += ed as u64;
        }
        Ok(BatchOutput { outputs, stats })
    }

    /// Answers a batch of questions over the first `rows` memory entries,
    /// each question under its own [`Budget`] (`budgets[q]` governs
    /// `questions[q]`).
    ///
    /// This is the serving fast path: it reuses the `scratch` arena (the
    /// warm sequential path performs no per-chunk or per-question buffer
    /// allocations), records the chunk work under [`Phase::BatchGemm`], and
    /// checks every live question's budget once per chunk. A question whose
    /// budget fails mid-pass goes *dead* — it stops accumulating and its
    /// slot carries the typed budget error — while the remaining questions
    /// complete the pass unaffected. Numeric faults are likewise isolated
    /// per question by the usual denominator/output guards.
    ///
    /// Per-question [`InferenceStats`] carry the question's compute share
    /// (its slice of the chunk GEMM as a GEMV count, exp, weighted-sum and
    /// divide flops); memory traffic is a batch-level quantity and is not
    /// attributed per question here.
    ///
    /// # Errors
    ///
    /// Batch-level: [`EngineError::Config`] on invalid configuration, a
    /// ragged question batch, or `budgets.len() != questions.len()`;
    /// [`EngineError::Shape`] / [`EngineError::MemoryMismatch`] on bad
    /// operands; [`EngineError::WorkerPanicked`] when a scale-out thread
    /// panics. Per-question deadline/cancellation/numeric errors are
    /// carried in the inner `Result` slots.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_budgeted(
        &self,
        m_in: &Matrix,
        m_out: &Matrix,
        rows: usize,
        questions: &[Vec<f32>],
        scratch: &mut Scratch,
        trace: &mut Trace,
        budgets: &[Budget],
    ) -> Result<Vec<Result<ColumnOutput, EngineError>>, EngineError> {
        self.forward_segmented_budgeted(
            m_in,
            m_out,
            &SegmentPlan::unsegmented(rows),
            questions,
            scratch,
            trace,
            budgets,
        )
    }

    /// Segmented batched serving path: like [`BatchEngine::forward_budgeted`]
    /// but driven by a [`SegmentPlan`]. Pruning is decided *per question*
    /// at segment boundaries: a question in Online mode whose running max
    /// provably dominates a segment's zone-map logit upper bound skips that
    /// segment (its rows contribute exactly-zero terms, so the answer is
    /// bitwise unchanged), while its batchmates still process it. Lazy-mode
    /// questions never prune (no running max exists until the division).
    ///
    /// Each chunk of memories is streamed once per batch and applied to
    /// every live question while cache-resident: one tiled batched
    /// accumulate ([`LazyAccumulator::accumulate_chunk_batch`] or
    /// [`OnlineSoftmax::accumulate_chunk_batch`]) fills every live
    /// question's chunk partial, and each partial merges into its running
    /// accumulator as in the single-question engine. The tiled kernels are
    /// the single definition of the f32 arithmetic (per-row FMA chain,
    /// `hsum4` tree, row-ordered accumulate), so every answer is bitwise
    /// identical to a per-question
    /// [`crate::Executor::forward_segmented_budgeted`] run with the same
    /// config. Network serving relies on this: a coalesced batch returns
    /// the same bits as a sequence of single-question asks.
    ///
    /// With [`MnnFastConfig::threads`] above one, every visited segment of
    /// two or more chunks is split across that many threads (see the module
    /// docs); the chunk partials are folded in the same global order, so
    /// answers, stats and the [`Phase::BatchGemm`]/[`Phase::Skip`] counts
    /// equal the sequential pass's. Helper phase times are CPU time summed
    /// across threads, and the in-order fold of staged partials is timed
    /// under [`Phase::Merge`].
    ///
    /// # Errors
    ///
    /// As [`BatchEngine::forward_budgeted`].
    #[allow(clippy::too_many_arguments)]
    pub fn forward_segmented_budgeted(
        &self,
        m_in: &Matrix,
        m_out: &Matrix,
        plan: &SegmentPlan<'_>,
        questions: &[Vec<f32>],
        scratch: &mut Scratch,
        trace: &mut Trace,
        budgets: &[Budget],
    ) -> Result<Vec<Result<ColumnOutput, EngineError>>, EngineError> {
        let rows = plan.rows();
        if budgets.len() != questions.len() {
            return Err(EngineError::Config(format!(
                "budget count {} != question count {}",
                budgets.len(),
                questions.len()
            )));
        }
        let Some(first) = questions.first() else {
            return Ok(Vec::new());
        };
        let probe = ColumnEngine::new(self.config);
        probe.check(m_in, m_out, first)?;
        check_rows(m_in, rows, "BatchEngine::forward_budgeted")?;
        check_ragged(questions, first.len())?;
        match self.config.softmax {
            SoftmaxMode::Lazy => self.segmented_pass::<LazyAccumulator>(
                m_in, m_out, plan, questions, scratch, trace, budgets,
            ),
            SoftmaxMode::Online => self.segmented_pass::<OnlineSoftmax>(
                m_in, m_out, plan, questions, scratch, trace, budgets,
            ),
        }
    }

    /// [`BatchEngine::forward_segmented_budgeted`] after validation, for
    /// one softmax mode.
    #[allow(clippy::too_many_arguments)]
    fn segmented_pass<A: BatchSoftmax>(
        &self,
        m_in: &Matrix,
        m_out: &Matrix,
        plan: &SegmentPlan<'_>,
        questions: &[Vec<f32>],
        scratch: &mut Scratch,
        trace: &mut Trace,
        budgets: &[Budget],
    ) -> Result<Vec<Result<ColumnOutput, EngineError>>, EngineError> {
        let rows = plan.rows();
        let ed = questions[0].len();
        let nq = questions.len();
        let chunk = self.config.chunk_size;
        let threads = self.config.threads.max(1);

        // Stage the arena: flatten the questions, reset the per-question
        // accumulators and bookkeeping, grow the logits tile.
        scratch.batch_us.clear();
        for q in questions {
            scratch.batch_us.extend_from_slice(q);
        }
        scratch.batch_live.clear();
        scratch.batch_live.resize(nq, true);
        scratch.batch_skipped.clear();
        scratch.batch_skipped.resize(nq, 0);
        scratch.batch_seg_live.clear();
        scratch.batch_seg_live.resize(nq, true);
        scratch.batch_query_norms.clear();
        scratch
            .batch_query_norms
            .extend(questions.iter().map(|q| segment::query_norm_upper(q)));
        scratch.batch_stats.clear();
        scratch.batch_stats.resize(nq, InferenceStats::default());
        let logit_len = nq * chunk.min(rows.max(1));
        if scratch.batch_logits.len() < logit_len {
            scratch.batch_logits.resize(logit_len, 0.0);
        }
        for slots in [
            A::slots(&mut scratch.batch_lazy, &mut scratch.batch_online),
            A::slots(
                &mut scratch.batch_chunk_lazy,
                &mut scratch.batch_chunk_online,
            ),
        ] {
            if slots.len() < nq {
                slots.resize_with(nq, A::default);
            }
        }
        for a in &mut A::slots(&mut scratch.batch_lazy, &mut scratch.batch_online)[..nq] {
            a.reset_to(ed);
        }

        // Threshold resolution (the Probability pre-pass streams the prefix
        // once for the whole batch; timed under Skip like the single path).
        let t0 = trace.begin();
        self.resolve_thresholds_into(m_in, rows, nq, ed, scratch, budgets);
        trace.record(Phase::Skip, t0, 0);
        scratch.batch_dead.reset(&scratch.batch_live[..nq]);

        // Main segmented chunk loop.
        {
            let Scratch {
                batch_logits,
                batch_us,
                batch_lazy,
                batch_online,
                batch_chunk_lazy,
                batch_chunk_online,
                batch_thresholds,
                batch_skipped,
                batch_stats,
                batch_seg_live,
                batch_query_norms,
                batch_dead,
                batch_lanes,
                ..
            } = scratch;
            let running = &mut A::slots(batch_lazy, batch_online)[..nq];
            let partials = &mut A::slots(batch_chunk_lazy, batch_chunk_online)[..nq];
            let abort = AtomicBool::new(false);
            let inp = ChunkInputs {
                m_in,
                m_out,
                us: batch_us,
                thresholds: batch_thresholds,
                budgets,
                dead: batch_dead,
                abort: &abort,
                chunk,
                ed,
                fused: self.config.fused,
            };
            for seg in plan.segments() {
                // Per-question prune decision for this segment. A freshly
                // reset accumulator's running max is -inf, so the first
                // segment can never prune.
                let mut any_visit = false;
                for q in 0..nq {
                    let mut visit = !batch_dead.is_dead(q);
                    if visit {
                        batch_stats[q].segments_total += 1;
                        if plan.prune() {
                            if let Some(running_max) = running[q].running_max() {
                                let ub = seg.logit_upper_bound(batch_query_norms[q]);
                                if segment::can_prune(running_max, ub) {
                                    batch_stats[q].segments_pruned += 1;
                                    batch_stats[q].rows_pruned += seg.rows as u64;
                                    visit = false;
                                }
                            }
                        }
                    }
                    batch_seg_live[q] = visit;
                    any_visit |= visit;
                }
                if any_visit {
                    let (start, end) = (seg.start, seg.start + seg.rows);
                    let mut main = Lane {
                        live: &mut batch_seg_live[..nq],
                        logits: &mut batch_logits[..logit_len],
                        skipped: &mut batch_skipped[..nq],
                        stats: &mut batch_stats[..nq],
                        trace: &mut *trace,
                    };
                    if threads.min(seg.rows.div_ceil(chunk)) > 1 {
                        split_segment(
                            &inp,
                            &mut main,
                            partials,
                            running,
                            batch_lanes,
                            start,
                            end,
                            threads,
                        )?;
                    } else {
                        run_chunks(
                            &inp,
                            &mut main,
                            Sink::Fold {
                                partials: &mut *partials,
                                running: &mut *running,
                            },
                            start,
                            end,
                        );
                    }
                }
                // Segment boundary: the opt-in wire roundtrip of every live
                // running accumulator proves the byte encoding carries the
                // full merge state across the segment handoff.
                let t0 = trace.begin();
                if mnn_tensor::partial::wire_merge_enabled() {
                    for (q, run) in running.iter_mut().enumerate() {
                        if !batch_dead.is_dead(q) {
                            *run = run.wire_roundtrip();
                        }
                    }
                }
                trace.record(Phase::SegmentMerge, t0, 1);
            }
        }

        // Finish: per-question numeric guards + lazy division. Dead
        // questions carry their budget's typed error.
        let t0 = trace.begin();
        let mut results = Vec::with_capacity(nq);
        let mut divisions = 0u64;
        for (q, budget) in budgets.iter().enumerate().take(nq) {
            if scratch.batch_dead.is_dead(q) {
                // A deadline cannot un-expire and a token cannot un-cancel,
                // so re-checking reproduces the error that killed the slot.
                let err = budget.check().err().unwrap_or(EngineError::Cancelled);
                results.push(Err(err));
                continue;
            }
            let running = &A::slots(&mut scratch.batch_lazy, &mut scratch.batch_online)[q];
            let denominator = running.denominator();
            if let Err(e) = check_denom(denominator, "batch merge") {
                results.push(Err(e));
                continue;
            }
            let mut o = scratch.take_out(ed);
            A::slots(&mut scratch.batch_lazy, &mut scratch.batch_online)[q].finish(&mut o);
            if let Err(e) = check_output(&o) {
                scratch.recycle(o);
                results.push(Err(e));
                continue;
            }
            let mut stats = scratch.batch_stats[q];
            stats.divisions = ed as u64;
            stats.flops += ed as u64 + kernels::gemv_flops(stats.rows_total as usize, ed);
            stats.intermediate_bytes = (chunk.min(rows.max(1)) * 4 + ed * 4) as u64;
            divisions += ed as u64;
            results.push(Ok(ColumnOutput {
                o,
                denominator,
                stats,
            }));
        }
        trace.record(Phase::Divide, t0, divisions);
        Ok(results)
    }

    /// Segmented batched serving over the *quantized* memory plane: each
    /// int8 chunk is streamed once per batch and applied to every live
    /// question while resident. Per question the processing is the exact
    /// single-question discipline — chunk partial → int8 chunk kernel →
    /// merge through the [`mnn_tensor::partial`] plane — so every answer is
    /// bitwise identical to a per-question
    /// [`crate::Executor::forward_quant_segmented_budgeted`] run. Pruning is
    /// per question (Online mode only), against zone maps built from
    /// dequantized row norms and each quantized query's own norm.
    ///
    /// # Errors
    ///
    /// As [`BatchEngine::forward_budgeted`].
    #[allow(clippy::too_many_arguments)]
    pub fn forward_quant_segmented_budgeted(
        &self,
        m_in: &QuantMatrix,
        m_out: &QuantMatrix,
        plan: &SegmentPlan<'_>,
        questions: &[Vec<f32>],
        scratch: &mut Scratch,
        trace: &mut Trace,
        budgets: &[Budget],
    ) -> Result<Vec<Result<ColumnOutput, EngineError>>, EngineError> {
        let rows = plan.rows();
        if budgets.len() != questions.len() {
            return Err(EngineError::Config(format!(
                "budget count {} != question count {}",
                budgets.len(),
                questions.len()
            )));
        }
        let Some(first) = questions.first() else {
            return Ok(Vec::new());
        };
        let probe = ColumnEngine::new(self.config);
        probe.check_quant(m_in, m_out, first)?;
        check_rows_quant(m_in, rows, "BatchEngine::forward_quant")?;
        check_ragged(questions, first.len())?;

        let ed = first.len();
        let nq = questions.len();
        let chunk = self.config.chunk_size;
        let mode = self.config.softmax;

        // Stage the arena: quantize every question (the kernels only ever
        // see i8 operands), reset accumulators and bookkeeping.
        scratch.batch_uq.clear();
        scratch.batch_uq.resize(nq * ed, 0);
        scratch.batch_uscales.clear();
        scratch.batch_uscales.resize(nq, 0.0);
        for (q, u) in questions.iter().enumerate() {
            scratch.batch_uscales[q] =
                mnn_tensor::quant::quantize_row(u, &mut scratch.batch_uq[q * ed..(q + 1) * ed]);
        }
        scratch.batch_live.clear();
        scratch.batch_live.resize(nq, true);
        scratch.batch_seg_live.clear();
        scratch.batch_seg_live.resize(nq, true);
        scratch.batch_query_norms.clear();
        for q in 0..nq {
            scratch.batch_query_norms.push(segment::query_norm_upper_i8(
                &scratch.batch_uq[q * ed..(q + 1) * ed],
                scratch.batch_uscales[q],
            ));
        }
        if scratch.batch_stats.len() < nq {
            scratch.batch_stats.resize_with(nq, InferenceStats::default);
        }
        for s in &mut scratch.batch_stats[..nq] {
            *s = InferenceStats::default();
        }
        let logit_len = nq * chunk.min(rows.max(1));
        if scratch.batch_logits.len() < logit_len {
            scratch.batch_logits.resize(logit_len, 0.0);
        }
        match mode {
            SoftmaxMode::Lazy => {
                if scratch.batch_lazy.len() < nq {
                    scratch.batch_lazy.resize_with(nq, LazyAccumulator::default);
                }
                if scratch.batch_chunk_lazy.len() < nq {
                    scratch
                        .batch_chunk_lazy
                        .resize_with(nq, LazyAccumulator::default);
                }
                for a in &mut scratch.batch_lazy[..nq] {
                    a.reset(ed);
                }
            }
            SoftmaxMode::Online => {
                if scratch.batch_online.len() < nq {
                    scratch.batch_online.resize_with(nq, OnlineSoftmax::default);
                }
                if scratch.batch_chunk_online.len() < nq {
                    scratch
                        .batch_chunk_online
                        .resize_with(nq, OnlineSoftmax::default);
                }
                for a in &mut scratch.batch_online[..nq] {
                    a.reset(ed);
                }
            }
        }

        let t0 = trace.begin();
        self.resolve_thresholds_quant_into(m_in, rows, nq, ed, scratch, budgets);
        trace.record(Phase::Skip, t0, 0);

        // Main segmented chunk loop: per live question, the single-question
        // chunk kernel + merge (bitwise identity is inherited, not proven
        // per-path).
        {
            let Scratch {
                batch_logits,
                batch_uq,
                batch_uscales,
                batch_lazy,
                batch_online,
                batch_chunk_lazy,
                batch_chunk_online,
                batch_thresholds,
                batch_live,
                batch_stats,
                batch_seg_live,
                batch_query_norms,
                ..
            } = scratch;
            for seg in plan.segments() {
                let mut any_visit = false;
                for q in 0..nq {
                    let mut visit = batch_live[q];
                    if visit {
                        batch_stats[q].segments_total += 1;
                        if plan.prune() && matches!(mode, SoftmaxMode::Online) {
                            let running_max = batch_online[q].max_logit();
                            let ub = seg.logit_upper_bound(batch_query_norms[q]);
                            if segment::can_prune(running_max, ub) {
                                batch_stats[q].segments_pruned += 1;
                                batch_stats[q].rows_pruned += seg.rows as u64;
                                visit = false;
                            }
                        }
                    }
                    batch_seg_live[q] = visit;
                    any_visit |= visit;
                }
                if any_visit {
                    let seg_end = seg.start + seg.rows;
                    let mut row = seg.start;
                    while row < seg_end {
                        let mut n_live = 0u64;
                        for q in 0..nq {
                            if batch_live[q] && budgets[q].check().is_err() {
                                batch_live[q] = false;
                            }
                            batch_seg_live[q] &= batch_live[q];
                            if batch_seg_live[q] {
                                n_live += 1;
                            }
                        }
                        if n_live == 0 {
                            break;
                        }
                        let n = chunk.min(seg_end - row);
                        let in_q = m_in.rows_slice(row, n);
                        let in_scales = m_in.scales_slice(row, n);
                        let out_q = m_out.rows_slice(row, n);
                        let out_scales = m_out.scales_slice(row, n);
                        for q in 0..nq {
                            if !batch_seg_live[q] {
                                continue;
                            }
                            let mut partial = match mode {
                                SoftmaxMode::Lazy => AccumMut::Lazy(&mut batch_chunk_lazy[q]),
                                SoftmaxMode::Online => AccumMut::Online(&mut batch_chunk_online[q]),
                            };
                            partial.reset(ed);
                            probe.process_chunk_quant(
                                in_q,
                                in_scales,
                                out_q,
                                out_scales,
                                n,
                                &batch_uq[q * ed..(q + 1) * ed],
                                batch_uscales[q],
                                batch_thresholds[q],
                                &mut partial,
                                &mut batch_stats[q],
                                &mut batch_logits[q * n..(q + 1) * n],
                                trace,
                            );
                            let t0 = trace.begin();
                            match mode {
                                SoftmaxMode::Lazy => mnn_tensor::partial::merge_lazy_into(
                                    &mut batch_lazy[q],
                                    &batch_chunk_lazy[q],
                                ),
                                SoftmaxMode::Online => mnn_tensor::partial::merge_online_into(
                                    &mut batch_online[q],
                                    &batch_chunk_online[q],
                                ),
                            }
                            trace.record(Phase::Merge, t0, 1);
                        }
                        row += n;
                    }
                }
                let t0 = trace.begin();
                if mnn_tensor::partial::wire_merge_enabled() {
                    match mode {
                        SoftmaxMode::Lazy => {
                            for q in 0..nq {
                                if batch_live[q] {
                                    batch_lazy[q] =
                                        mnn_tensor::partial::roundtrip_lazy(&batch_lazy[q]);
                                }
                            }
                        }
                        SoftmaxMode::Online => {
                            for q in 0..nq {
                                if batch_live[q] {
                                    batch_online[q] =
                                        mnn_tensor::partial::roundtrip_online(&batch_online[q]);
                                }
                            }
                        }
                    }
                }
                trace.record(Phase::SegmentMerge, t0, 1);
            }
        }

        // Finish: per-question numeric guards + lazy division. Unlike the
        // f32 batch path, flops/traffic were already charged per question by
        // the single-question chunk kernel, so no shared-GEMM share is added
        // here.
        let t0 = trace.begin();
        let mut results = Vec::with_capacity(nq);
        let mut divisions = 0u64;
        for (q, budget) in budgets.iter().enumerate().take(nq) {
            if !scratch.batch_live[q] {
                let err = budget.check().err().unwrap_or(EngineError::Cancelled);
                results.push(Err(err));
                continue;
            }
            let denominator = match mode {
                SoftmaxMode::Lazy => scratch.batch_lazy[q].denom(),
                SoftmaxMode::Online => scratch.batch_online[q].denom(),
            };
            if let Err(e) = check_denom(denominator, "batch merge") {
                results.push(Err(e));
                continue;
            }
            let mut o = scratch.take_out(ed);
            match mode {
                SoftmaxMode::Lazy => scratch.batch_lazy[q].finish_into(&mut o),
                SoftmaxMode::Online => scratch.batch_online[q].finish_into(&mut o),
            }
            if let Err(e) = check_output(&o) {
                scratch.recycle(o);
                results.push(Err(e));
                continue;
            }
            let mut stats = scratch.batch_stats[q];
            stats.divisions = ed as u64;
            stats.flops += ed as u64;
            stats.intermediate_bytes = (chunk.min(rows.max(1)) * 4 + ed * 4) as u64;
            divisions += ed as u64;
            results.push(Ok(ColumnOutput {
                o,
                denominator,
                stats,
            }));
        }
        trace.record(Phase::Divide, t0, divisions);
        Ok(results)
    }

    /// [`BatchEngine::resolve_thresholds_into`] over the quantized plane:
    /// the Probability pre-pass runs each question's int8 GEMV over every
    /// chunk with the exact accumulation discipline of
    /// [`ColumnEngine::resolve_threshold_prefix_quant`], so resolved
    /// thresholds match the single-question quantized engine bitwise.
    fn resolve_thresholds_quant_into(
        &self,
        m_in: &QuantMatrix,
        rows: usize,
        nq: usize,
        ed: usize,
        scratch: &mut Scratch,
        budgets: &[Budget],
    ) {
        scratch.batch_thresholds.clear();
        match self.config.skip {
            SkipPolicy::None => scratch.batch_thresholds.resize(nq, None),
            SkipPolicy::RawWeight(th) => scratch.batch_thresholds.resize(nq, Some(th)),
            SkipPolicy::Probability(th) => {
                scratch.batch_thresholds.resize(nq, None);
                let chunk = self.config.chunk_size;
                let Scratch {
                    batch_logits,
                    batch_uq,
                    batch_uscales,
                    batch_thresholds,
                    batch_live,
                    batch_stats,
                    batch_prepass,
                    ..
                } = scratch;
                if batch_prepass.len() < 3 * nq {
                    batch_prepass.resize(3 * nq, 0.0);
                }
                let (max_logit, rest) = batch_prepass.split_at_mut(nq);
                let (denom_rel, raw_denom) = rest.split_at_mut(nq);
                max_logit.fill(f64::NEG_INFINITY);
                denom_rel[..nq].fill(0.0);
                raw_denom[..nq].fill(0.0);

                let mut row = 0usize;
                while row < rows {
                    let mut any_live = false;
                    for q in 0..nq {
                        if batch_live[q] && budgets[q].check().is_err() {
                            batch_live[q] = false;
                        }
                        any_live |= batch_live[q];
                    }
                    if !any_live {
                        break;
                    }
                    let n = chunk.min(rows - row);
                    let in_q = m_in.rows_slice(row, n);
                    let in_scales = m_in.scales_slice(row, n);
                    for q in 0..nq {
                        if !batch_live[q] {
                            continue;
                        }
                        let buf = &mut batch_logits[q * n..(q + 1) * n];
                        kernels::gemv_chunk_i8(
                            in_q,
                            in_scales,
                            n,
                            &batch_uq[q * ed..(q + 1) * ed],
                            batch_uscales[q],
                            buf,
                        );
                        for &x in buf.iter() {
                            if x > max_logit[q] as f32 {
                                denom_rel[q] *= ((max_logit[q] as f32 - x) as f64).exp();
                                max_logit[q] = x as f64;
                            }
                            denom_rel[q] += ((x - max_logit[q] as f32) as f64).exp();
                            raw_denom[q] += (x as f64).exp();
                        }
                        batch_stats[q].flops += kernels::gemv_flops(n, ed) + n as u64;
                        batch_stats[q].memory_bytes += (n * (ed + 4)) as u64;
                    }
                    row += n;
                }
                for q in 0..nq {
                    if !batch_live[q] {
                        continue;
                    }
                    batch_thresholds[q] = Some(match self.config.softmax {
                        SoftmaxMode::Lazy => (th as f64 * raw_denom[q]) as f32,
                        SoftmaxMode::Online => (th as f64 * denom_rel[q]) as f32,
                    });
                }
            }
        }
    }

    /// Budget-aware threshold resolution into `scratch.batch_thresholds`
    /// (allocation-free once the arena has grown). Questions whose budget
    /// fails during the pre-pass go dead in `scratch.batch_live` and keep a
    /// `None` threshold; their error is reconstructed at finish time.
    fn resolve_thresholds_into(
        &self,
        m_in: &Matrix,
        rows: usize,
        nq: usize,
        ed: usize,
        scratch: &mut Scratch,
        budgets: &[Budget],
    ) {
        scratch.batch_thresholds.clear();
        match self.config.skip {
            SkipPolicy::None => scratch.batch_thresholds.resize(nq, None),
            SkipPolicy::RawWeight(th) => scratch.batch_thresholds.resize(nq, Some(th)),
            SkipPolicy::Probability(th) => {
                scratch.batch_thresholds.resize(nq, None);
                let chunk = self.config.chunk_size;
                let Scratch {
                    batch_logits,
                    batch_us,
                    batch_thresholds,
                    batch_live,
                    batch_stats,
                    batch_prepass,
                    ..
                } = scratch;
                if batch_prepass.len() < 3 * nq {
                    batch_prepass.resize(3 * nq, 0.0);
                }
                let (max_logit, rest) = batch_prepass.split_at_mut(nq);
                let (denom_rel, raw_denom) = rest.split_at_mut(nq);
                max_logit.fill(f64::NEG_INFINITY);
                denom_rel[..nq].fill(0.0);
                raw_denom[..nq].fill(0.0);

                let mut row = 0usize;
                while row < rows {
                    let mut any_live = false;
                    for q in 0..nq {
                        if batch_live[q] && budgets[q].check().is_err() {
                            batch_live[q] = false;
                        }
                        any_live |= batch_live[q];
                    }
                    if !any_live {
                        break;
                    }
                    let n = chunk.min(rows - row);
                    let flat = m_in.rows_slice(row, n);
                    kernels::gemm_chunk(flat, n, batch_us, nq, &mut batch_logits[..nq * n]);
                    for q in 0..nq {
                        if !batch_live[q] {
                            continue;
                        }
                        // The max/subtract runs in f32 exactly as in the
                        // single-question engine (`max_logit` slots hold f32
                        // values), so resolved thresholds match bitwise.
                        for &x in &batch_logits[q * n..(q + 1) * n] {
                            if x > max_logit[q] as f32 {
                                denom_rel[q] *= ((max_logit[q] as f32 - x) as f64).exp();
                                max_logit[q] = x as f64;
                            }
                            denom_rel[q] += ((x - max_logit[q] as f32) as f64).exp();
                            raw_denom[q] += (x as f64).exp();
                        }
                        // This question's share of the pre-pass: its GEMV
                        // slice of the chunk GEMM plus the exp sweep.
                        batch_stats[q].flops += kernels::gemv_flops(n, ed) + n as u64;
                    }
                    row += n;
                }
                for q in 0..nq {
                    if !batch_live[q] {
                        continue;
                    }
                    batch_thresholds[q] = Some(match self.config.softmax {
                        SoftmaxMode::Lazy => (th as f64 * raw_denom[q]) as f32,
                        SoftmaxMode::Online => (th as f64 * denom_rel[q]) as f32,
                    });
                }
            }
        }
    }
}

/// Rejects ragged question batches.
fn check_ragged(questions: &[Vec<f32>], ed: usize) -> Result<(), EngineError> {
    for q in questions {
        if q.len() != ed {
            return Err(EngineError::Config(format!(
                "ragged question batch: {} vs {}",
                q.len(),
                ed
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_tensor::assert_slice_approx_eq;

    fn setup(ns: usize, ed: usize, nq: usize) -> (Matrix, Matrix, Vec<Vec<f32>>) {
        let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 7 + c) as f32 * 0.13).sin() * 0.6);
        let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 5 * c) as f32 * 0.09).cos() * 0.6);
        let questions = (0..nq)
            .map(|q| {
                (0..ed)
                    .map(|k| ((q * ed + k) as f32 * 0.21).sin())
                    .collect()
            })
            .collect();
        (m_in, m_out, questions)
    }

    #[test]
    fn batched_matches_per_question_engine() {
        let (m_in, m_out, questions) = setup(83, 8, 5);
        for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
            let config = MnnFastConfig::new(16).with_softmax(mode);
            let batched = BatchEngine::new(config)
                .forward(&m_in, &m_out, &questions)
                .unwrap();
            let single = ColumnEngine::new(config);
            for (q, out) in batched.outputs.iter().enumerate() {
                let expect = single.forward(&m_in, &m_out, &questions[q]).unwrap();
                assert_slice_approx_eq(&out.o, &expect.o, 1e-4);
                assert_eq!(out.stats.rows_total, expect.stats.rows_total, "q{q}");
            }
        }
    }

    #[test]
    fn batched_skipping_matches_per_question_counts() {
        let (m_in, m_out, questions) = setup(60, 6, 4);
        let config = MnnFastConfig::new(10).with_skip(SkipPolicy::Probability(0.01));
        let batched = BatchEngine::new(config)
            .forward(&m_in, &m_out, &questions)
            .unwrap();
        let single = ColumnEngine::new(config);
        for (q, out) in batched.outputs.iter().enumerate() {
            let expect = single.forward(&m_in, &m_out, &questions[q]).unwrap();
            assert_eq!(out.stats.rows_skipped, expect.stats.rows_skipped, "q{q}");
            assert_slice_approx_eq(&out.o, &expect.o, 1e-4);
        }
    }

    #[test]
    fn batch_memory_traffic_is_per_batch_not_per_question() {
        let (m_in, m_out, questions) = setup(100, 8, 6);
        let config = MnnFastConfig::new(20);
        let batched = BatchEngine::new(config)
            .forward(&m_in, &m_out, &questions)
            .unwrap();
        // Memories counted once: 2 * ns * ed * 4 bytes, independent of nq.
        assert_eq!(batched.stats.memory_bytes, 2 * 100 * 8 * 4);
        // A per-question engine would count 6x (plus skip effects).
        let single = ColumnEngine::new(config)
            .forward(&m_in, &m_out, &questions[0])
            .unwrap();
        assert!(single.stats.memory_bytes * 5 < batched.stats.memory_bytes * 6);
    }

    #[test]
    fn parallel_batched_matches_sequential() {
        let (m_in, m_out, questions) = setup(120, 8, 4);
        for skip in [SkipPolicy::None, SkipPolicy::Probability(0.01)] {
            let seq = BatchEngine::new(MnnFastConfig::new(16).with_skip(skip))
                .forward(&m_in, &m_out, &questions)
                .unwrap();
            for threads in [2usize, 3, 8] {
                let par =
                    BatchEngine::new(MnnFastConfig::new(16).with_skip(skip).with_threads(threads))
                        .forward(&m_in, &m_out, &questions)
                        .unwrap();
                for (a, b) in par.outputs.iter().zip(&seq.outputs) {
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&a.o), bits(&b.o), "threads {threads}, {skip:?}");
                    assert_eq!(a.denominator.to_bits(), b.denominator.to_bits());
                    assert_eq!(a.stats.rows_skipped, b.stats.rows_skipped);
                }
                assert_eq!(par.stats.rows_total, seq.stats.rows_total);
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (m_in, m_out, _) = setup(10, 4, 1);
        let out = BatchEngine::new(MnnFastConfig::new(4))
            .forward(&m_in, &m_out, &[])
            .unwrap();
        assert!(out.outputs.is_empty());
    }

    #[test]
    fn ragged_batch_is_rejected() {
        let (m_in, m_out, mut questions) = setup(10, 4, 2);
        questions[1] = vec![0.0; 3];
        let err = BatchEngine::new(MnnFastConfig::new(4)).forward(&m_in, &m_out, &questions);
        assert!(matches!(err, Err(EngineError::Config(_))));
    }

    #[test]
    fn budgeted_batch_matches_forward() {
        let (m_in, m_out, questions) = setup(83, 8, 5);
        for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
            let config = MnnFastConfig::new(16).with_softmax(mode);
            let engine = BatchEngine::new(config);
            let plain = engine.forward(&m_in, &m_out, &questions).unwrap();
            let mut scratch = Scratch::new();
            let mut trace = Trace::enabled();
            let budgets = vec![Budget::unlimited(); questions.len()];
            let results = engine
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
            assert_eq!(results.len(), questions.len());
            for (r, expect) in results.iter().zip(&plain.outputs) {
                let out = r.as_ref().unwrap();
                assert_slice_approx_eq(&out.o, &expect.o, 1e-5);
                assert_eq!(out.stats.rows_total, expect.stats.rows_total);
                assert_eq!(out.stats.rows_skipped, expect.stats.rows_skipped);
            }
            assert!(trace.nanos(Phase::BatchGemm) > 0);
            assert_eq!(
                trace.count(Phase::BatchGemm),
                (m_in.rows() * questions.len()) as u64
            );
        }
    }

    #[test]
    fn budgeted_batch_isolates_cancellation() {
        use crate::budget::CancelToken;
        let (m_in, m_out, questions) = setup(64, 8, 3);
        let engine = BatchEngine::new(MnnFastConfig::new(8));
        let token = CancelToken::new();
        token.cancel();
        let budgets = vec![
            Budget::unlimited(),
            Budget::unlimited().with_cancel(token),
            Budget::unlimited(),
        ];
        let mut scratch = Scratch::new();
        let mut trace = Trace::disabled();
        let results = engine
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
        assert!(matches!(results[1], Err(EngineError::Cancelled)));
        let expect = engine.forward(&m_in, &m_out, &questions).unwrap();
        for q in [0usize, 2] {
            let out = results[q].as_ref().unwrap();
            assert_slice_approx_eq(&out.o, &expect.outputs[q].o, 1e-5);
        }
    }

    #[test]
    fn budgeted_batch_rejects_mismatched_budgets() {
        let (m_in, m_out, questions) = setup(10, 4, 2);
        let engine = BatchEngine::new(MnnFastConfig::new(4));
        let err = engine.forward_budgeted(
            &m_in,
            &m_out,
            m_in.rows(),
            &questions,
            &mut Scratch::new(),
            &mut Trace::disabled(),
            &[Budget::unlimited()],
        );
        assert!(matches!(err, Err(EngineError::Config(_))));
    }
}
