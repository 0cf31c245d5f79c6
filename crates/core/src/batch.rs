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
//! Instrumentation counts the shared work once: the chunk GEMM is charged to
//! the batch as one [`mnn_tensor::kernels::gemm_flops`] count (not `nq`
//! separate GEMV estimates) and each memory chunk's `memory_bytes` once per
//! batch, while per-question outputs carry their own share.
//!
//! Two entry points:
//! * [`BatchEngine::forward`] — one-shot convenience over the whole store,
//!   optionally splitting chunk ranges across threads.
//! * [`BatchEngine::forward_budgeted`] — the serving path: reuses a
//!   [`Scratch`] arena (the warm path performs no per-chunk or per-question
//!   buffer allocations), records the [`Phase::BatchGemm`] trace phase, and
//!   gives every question its own [`Budget`] so one expired deadline or
//!   cancelled request fails *that* slot while its batchmates finish.

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

/// Per-question softmax accumulator.
#[derive(Debug, Clone)]
enum BatchAccum {
    Lazy(Vec<LazyAccumulator>),
    Online(Vec<OnlineSoftmax>),
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

    /// Answers all `questions` with one streaming pass over the memories.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on invalid configuration or mismatched
    /// shapes, and [`EngineError::WorkerPanicked`] when a scale-out worker
    /// thread panics. [`SkipPolicy::Probability`] is resolved per question
    /// with the same two-pass semantics as the single-question engine.
    pub fn forward(
        &self,
        m_in: &Matrix,
        m_out: &Matrix,
        questions: &[Vec<f32>],
    ) -> Result<BatchOutput, EngineError> {
        let probe = ColumnEngine::new(self.config);
        let Some(first) = questions.first() else {
            return Ok(BatchOutput {
                outputs: Vec::new(),
                stats: InferenceStats::default(),
            });
        };
        probe.check(m_in, m_out, first)?;
        check_ragged(questions, first.len())?;

        let ed = first.len();
        let nq = questions.len();
        let ns = m_in.rows();
        let chunk = self.config.chunk_size;
        let us_flat: Vec<f32> = questions.iter().flatten().copied().collect();

        // Per-question raw thresholds (the Probability pre-pass itself runs
        // on the batched GEMM and charges its traffic/flops once per batch).
        let mut batch_stats = InferenceStats::default();
        let thresholds = self.resolve_thresholds(m_in, &us_flat, nq, &mut batch_stats)?;

        let threads = self.config.threads.min(ns.max(1));
        let (acc, per_q, range_mem, gemm_flops) = if threads <= 1 {
            self.process_rows(m_in, m_out, &us_flat, nq, &thresholds, 0, ns)
        } else {
            // Scale-out: contiguous chunk-aligned row ranges per worker,
            // per-question partials merged in worker order (deterministic).
            let chunks_total = ns.div_ceil(chunk);
            let chunks_per_thread = chunks_total.div_ceil(threads);
            let rows_per_thread = chunks_per_thread * chunk;
            let partials = std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads);
                for t in 0..threads {
                    let start = (t * rows_per_thread).min(ns);
                    let end = ((t + 1) * rows_per_thread).min(ns);
                    let thresholds = &thresholds;
                    let us_flat = &us_flat;
                    handles.push(scope.spawn(move || {
                        self.process_rows(m_in, m_out, us_flat, nq, thresholds, start, end)
                    }));
                }
                handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
            });
            // A worker that panicked (a poisoned chunk kernel, a violated
            // slice invariant) fails the pass with a typed error, as in
            // `ParallelEngine`, instead of unwinding through the caller.
            let partials = partials
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| EngineError::WorkerPanicked)?;

            let mut merged: Option<BatchAccum> = None;
            let mut stats_acc = vec![InferenceStats::default(); nq];
            let mut mem = 0u64;
            let mut gflops = 0u64;
            for (acc, per_q, m, g) in partials {
                mem += m;
                gflops += g;
                for (dst, src) in stats_acc.iter_mut().zip(per_q.iter()) {
                    dst.merge(src);
                }
                match &mut merged {
                    None => merged = Some(acc),
                    Some(BatchAccum::Lazy(dst)) => {
                        let BatchAccum::Lazy(src) = acc else {
                            unreachable!("softmax mode is fixed per engine")
                        };
                        for (d, s) in dst.iter_mut().zip(&src) {
                            mnn_tensor::partial::merge_lazy_into(d, s);
                        }
                    }
                    Some(BatchAccum::Online(dst)) => {
                        let BatchAccum::Online(src) = acc else {
                            unreachable!("softmax mode is fixed per engine")
                        };
                        for (d, s) in dst.iter_mut().zip(&src) {
                            mnn_tensor::partial::merge_online_into(d, s);
                        }
                    }
                }
            }
            (
                merged.unwrap_or_else(|| match self.config.softmax {
                    SoftmaxMode::Lazy => BatchAccum::Lazy(vec![LazyAccumulator::new(ed); nq]),
                    SoftmaxMode::Online => BatchAccum::Online(vec![OnlineSoftmax::new(ed); nq]),
                }),
                stats_acc,
                mem,
                gflops,
            )
        };
        batch_stats.memory_bytes += range_mem;
        // The chunk GEMM is shared work: charged once at batch level.
        batch_stats.flops += gemm_flops;
        batch_stats.intermediate_bytes = (nq * chunk.min(ns.max(1)) * 4 + nq * ed * 4) as u64;

        for s in &per_q {
            batch_stats.rows_total += s.rows_total;
            batch_stats.rows_skipped += s.rows_skipped;
            batch_stats.flops += s.flops;
            batch_stats.ws_flops += s.ws_flops;
            batch_stats.flops_skipped += s.flops_skipped;
            batch_stats.divisions += ed as u64;
        }
        let outputs: Vec<ColumnOutput> = match acc {
            BatchAccum::Lazy(accs) => accs
                .into_iter()
                .zip(per_q.iter())
                .map(|(a, s)| finish_output(a.denom(), a.finish(), *s, ed))
                .collect(),
            BatchAccum::Online(accs) => accs
                .into_iter()
                .zip(per_q.iter())
                .map(|(a, s)| finish_output(a.denom(), a.finish(), *s, ed))
                .collect(),
        };
        Ok(BatchOutput {
            outputs,
            stats: batch_stats,
        })
    }

    /// Answers a batch of questions over the first `rows` memory entries,
    /// each question under its own [`Budget`] (`budgets[q]` governs
    /// `questions[q]`).
    ///
    /// This is the serving fast path: it reuses the `scratch` arena (the
    /// warm path performs no per-chunk or per-question buffer allocations),
    /// records the chunk work under [`Phase::BatchGemm`], and checks every
    /// live question's budget once per chunk. A question whose budget fails
    /// mid-pass goes *dead* — it stops accumulating and its slot carries the
    /// typed budget error — while the remaining questions complete the pass
    /// unaffected. Numeric faults are likewise isolated per question by the
    /// usual denominator/output guards.
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
    /// operands. Per-question deadline/cancellation/numeric errors are
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
    /// but driven by a [`SegmentPlan`]. Pruning is decided *per question*:
    /// a question in Online mode whose running max provably dominates a
    /// segment's zone-map logit upper bound skips that segment (its rows
    /// contribute exactly-zero terms, so the answer is bitwise unchanged),
    /// while its batchmates still process it. Lazy-mode questions never
    /// prune (no running max exists until the division).
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

        let ed = first.len();
        let nq = questions.len();
        let chunk = self.config.chunk_size;
        let mode = self.config.softmax;
        let fused = self.config.fused;

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

        // Threshold resolution (the Probability pre-pass streams the prefix
        // once for the whole batch; timed under Skip like the single path).
        let t0 = trace.begin();
        self.resolve_thresholds_into(m_in, rows, nq, ed, scratch, budgets);
        trace.record(Phase::Skip, t0, 0);

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
                batch_live,
                batch_skipped,
                batch_stats,
                batch_seg_live,
                batch_query_norms,
                ..
            } = scratch;
            for seg in plan.segments() {
                // Per-question prune decision for this segment. A freshly
                // reset accumulator's running max is -inf, so the first
                // segment can never prune; Lazy mode never prunes (it has
                // no running max until the final division).
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
                        let in_flat = m_in.rows_slice(row, n);
                        let out_flat = m_out.rows_slice(row, n);
                        for s in batch_skipped[..nq].iter_mut() {
                            *s = 0;
                        }
                        // The chunk is streamed from memory once and applied
                        // to every live question while resident — that is the
                        // batching win. Each question fills a fresh chunk
                        // partial and merges it into its running accumulator,
                        // the single-question engine's discipline; the tiled
                        // kernels give each question the bits its lone pass
                        // would compute (see `mnn_tensor::simd`).
                        let t0 = trace.begin();
                        let live = &batch_seg_live[..nq];
                        match mode {
                            SoftmaxMode::Lazy => {
                                let partials = &mut batch_chunk_lazy[..nq];
                                for (p, _) in partials.iter_mut().zip(live).filter(|(_, l)| **l) {
                                    p.reset(ed);
                                }
                                LazyAccumulator::accumulate_chunk_batch(
                                    partials,
                                    in_flat,
                                    out_flat,
                                    n,
                                    batch_us,
                                    batch_thresholds,
                                    live,
                                    fused,
                                    batch_logits,
                                    batch_skipped,
                                );
                                for ((run, p), _) in batch_lazy
                                    .iter_mut()
                                    .zip(partials.iter())
                                    .zip(live)
                                    .filter(|(_, l)| **l)
                                {
                                    mnn_tensor::partial::merge_lazy_into(run, p);
                                }
                            }
                            SoftmaxMode::Online => {
                                let partials = &mut batch_chunk_online[..nq];
                                for (p, _) in partials.iter_mut().zip(live).filter(|(_, l)| **l) {
                                    p.reset(ed);
                                }
                                OnlineSoftmax::accumulate_chunk_batch(
                                    partials,
                                    in_flat,
                                    out_flat,
                                    n,
                                    batch_us,
                                    batch_thresholds,
                                    live,
                                    batch_logits,
                                    batch_skipped,
                                );
                                for ((run, p), _) in batch_online
                                    .iter_mut()
                                    .zip(partials.iter())
                                    .zip(live)
                                    .filter(|(_, l)| **l)
                                {
                                    mnn_tensor::partial::merge_online_into(run, p);
                                }
                            }
                        }
                        trace.record(Phase::BatchGemm, t0, n as u64 * n_live);
                        let mut chunk_skipped = 0u64;
                        for q in 0..nq {
                            if !batch_seg_live[q] {
                                continue;
                            }
                            let d = batch_skipped[q];
                            chunk_skipped += d;
                            let kept = n as u64 - d;
                            let s = &mut batch_stats[q];
                            s.chunks += 1;
                            s.rows_total += n as u64;
                            s.rows_skipped += d;
                            s.flops += n as u64 + kept * 2 * ed as u64;
                            s.ws_flops += kept * 2 * ed as u64;
                            s.flops_skipped += d * 2 * ed as u64;
                        }
                        trace.bump(Phase::Skip, chunk_skipped);
                        row += n;
                    }
                }
                // Segment boundary: the opt-in wire roundtrip of every live
                // running accumulator proves the byte encoding carries the
                // full merge state across the segment handoff.
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

        // Finish: per-question numeric guards + lazy division. Dead
        // questions carry their budget's typed error.
        let t0 = trace.begin();
        let mut results = Vec::with_capacity(nq);
        let mut divisions = 0u64;
        for (q, budget) in budgets.iter().enumerate().take(nq) {
            if !scratch.batch_live[q] {
                // A deadline cannot un-expire and a token cannot un-cancel,
                // so re-checking reproduces the error that killed the slot.
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

    /// Processes rows `[start, end)` for every question; returns the
    /// per-question accumulators, per-question stats (inner-product flops
    /// excluded — the chunk GEMM is shared work), memory bytes, and the
    /// batch-level GEMM flops.
    #[allow(clippy::too_many_arguments)]
    fn process_rows(
        &self,
        m_in: &Matrix,
        m_out: &Matrix,
        us_flat: &[f32],
        nq: usize,
        thresholds: &[Option<f32>],
        start: usize,
        end: usize,
    ) -> (BatchAccum, Vec<InferenceStats>, u64, u64) {
        let ed = us_flat.len() / nq.max(1);
        let chunk = self.config.chunk_size;
        let mut acc = match self.config.softmax {
            SoftmaxMode::Lazy => BatchAccum::Lazy(vec![LazyAccumulator::new(ed); nq]),
            SoftmaxMode::Online => BatchAccum::Online(vec![OnlineSoftmax::new(ed); nq]),
        };
        let mut per_q = vec![InferenceStats::default(); nq];
        let mut mem_bytes = 0u64;
        let mut gemm_flops = 0u64;
        if start >= end || nq == 0 {
            return (acc, per_q, mem_bytes, gemm_flops);
        }
        let mut logits = vec![0.0f32; nq * chunk.min(end - start)];
        let live = vec![true; nq];
        let mut skipped = vec![0u64; nq];
        let mut partial = match self.config.softmax {
            SoftmaxMode::Lazy => BatchAccum::Lazy(vec![LazyAccumulator::new(ed); nq]),
            SoftmaxMode::Online => BatchAccum::Online(vec![OnlineSoftmax::new(ed); nq]),
        };

        let mut row = start;
        while row < end {
            let n = chunk.min(end - row);
            let in_flat = m_in.rows_slice(row, n);
            let out_flat = m_out.rows_slice(row, n);
            for s in skipped.iter_mut() {
                *s = 0;
            }
            // Chunk partial → merge, the same discipline as the
            // single-question engines: Online relative weights are
            // chunk-local, so skip decisions match per-question runs.
            match (&mut acc, &mut partial) {
                (BatchAccum::Lazy(run), BatchAccum::Lazy(part)) => {
                    for p in part.iter_mut() {
                        p.reset(ed);
                    }
                    LazyAccumulator::accumulate_chunk_batch(
                        part,
                        in_flat,
                        out_flat,
                        n,
                        us_flat,
                        thresholds,
                        &live,
                        self.config.fused,
                        &mut logits,
                        &mut skipped,
                    );
                    for (r, p) in run.iter_mut().zip(part.iter()) {
                        mnn_tensor::partial::merge_lazy_into(r, p);
                    }
                }
                (BatchAccum::Online(run), BatchAccum::Online(part)) => {
                    for p in part.iter_mut() {
                        p.reset(ed);
                    }
                    OnlineSoftmax::accumulate_chunk_batch(
                        part,
                        in_flat,
                        out_flat,
                        n,
                        us_flat,
                        thresholds,
                        &live,
                        &mut logits,
                        &mut skipped,
                    );
                    for (r, p) in run.iter_mut().zip(part.iter()) {
                        mnn_tensor::partial::merge_online_into(r, p);
                    }
                }
                _ => unreachable!("softmax mode is fixed per engine"),
            }
            gemm_flops += kernels::gemm_flops(n, ed, nq);
            mem_bytes += 2 * (n * ed * 4) as u64; // M_IN + M_OUT, once for all nq
            for q in 0..nq {
                let d = skipped[q];
                let kept = n as u64 - d;
                per_q[q].chunks += 1;
                per_q[q].rows_total += n as u64;
                per_q[q].rows_skipped += d;
                per_q[q].flops += n as u64 + kept * 2 * ed as u64;
                per_q[q].ws_flops += kept * 2 * ed as u64;
                per_q[q].flops_skipped += d * 2 * ed as u64;
            }
            row += n;
        }
        (acc, per_q, mem_bytes, gemm_flops)
    }

    /// Per-question raw thresholds; the Probability pre-pass streams the
    /// memories once for the whole batch on the tiled GEMM, charging its
    /// flops and `memory_bytes` once per batch.
    fn resolve_thresholds(
        &self,
        m_in: &Matrix,
        us_flat: &[f32],
        nq: usize,
        stats: &mut InferenceStats,
    ) -> Result<Vec<Option<f32>>, EngineError> {
        match self.config.skip {
            SkipPolicy::None => Ok(vec![None; nq]),
            SkipPolicy::RawWeight(th) => Ok(vec![Some(th); nq]),
            SkipPolicy::Probability(th) => {
                let ed = us_flat.len() / nq;
                let chunk = self.config.chunk_size;
                let ns = m_in.rows();
                let mut max_logit = vec![f32::NEG_INFINITY; nq];
                let mut denom_rel = vec![0.0f64; nq];
                let mut raw_denom = vec![0.0f64; nq];
                let mut logits = vec![0.0f32; nq * chunk.min(ns.max(1))];

                let mut row = 0usize;
                while row < ns {
                    let n = chunk.min(ns - row);
                    let flat = m_in.rows_slice(row, n);
                    kernels::gemm_chunk(flat, n, us_flat, nq, &mut logits[..nq * n]);
                    stats.flops += kernels::gemm_flops(n, ed, nq); // once, not per question
                    for q in 0..nq {
                        for &x in &logits[q * n..(q + 1) * n] {
                            if x > max_logit[q] {
                                denom_rel[q] *= ((max_logit[q] - x) as f64).exp();
                                max_logit[q] = x;
                            }
                            denom_rel[q] += ((x - max_logit[q]) as f64).exp();
                            raw_denom[q] += (x as f64).exp();
                            stats.flops += 1;
                        }
                    }
                    stats.memory_bytes += (n * ed * 4) as u64; // chunk loaded once for all nq
                    row += n;
                }
                Ok((0..nq)
                    .map(|q| match self.config.softmax {
                        SoftmaxMode::Lazy => Some((th as f64 * raw_denom[q]) as f32),
                        SoftmaxMode::Online => Some((th as f64 * denom_rel[q]) as f32),
                    })
                    .collect())
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

/// Builds a per-question [`ColumnOutput`], adding the question's share of
/// the chunk GEMM (as a GEMV count) and the final division to its stats.
fn finish_output(
    denominator: f32,
    o: Vec<f32>,
    mut stats: InferenceStats,
    ed: usize,
) -> ColumnOutput {
    stats.divisions = ed as u64;
    stats.flops += ed as u64 + kernels::gemv_flops(stats.rows_total as usize, ed);
    ColumnOutput {
        o,
        denominator,
        stats,
    }
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
                    assert_slice_approx_eq(&a.o, &b.o, 1e-4);
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
