//! The traced run's layer-by-layer replay.
//!
//! Nothing inside the program is instrumented. Instead, after the traced
//! network window, the benchmark feeds the *same* inputs to each layer's
//! public functions in-process and records a span around every call:
//!
//! 1. **pool** — a `SessionPool` with the daemon's defaults receives the
//!    window's arrivals at their recorded send times through
//!    `enqueue_tracked` / `flush_due` / `observe`, exactly as the daemon's
//!    scheduler loop drives it. This fixes the batches.
//! 2. **session**, then straight away **core + memnn + tensor** — for each
//!    of those batches and sentences in order, `Session::ask_many` /
//!    `Session::observe`, then the same inputs one level down: `MemNet`
//!    embedding, `multi_hop_{,quant_}batch_segmented_budgeted` over a
//!    `MemoryStore` filled by `MemoryStore::push`, the output logits, and
//!    the chunk kernels the forward runs, over the same rows and questions.
//!
//! A layer's self time is its time minus the next layer down's time on the
//! same inputs. Each pass has its own time origin; client spans are
//! relative to the network window's start.

use crate::daemon::token;
use crate::loadgen::{Outcome, Record};
use crate::workload::{
    Inputs, OpKind, Spec, Traffic, DAEMON_BATCH_WAIT_US, DAEMON_MAX_BATCH, ED, TENANTS,
};
use mnn_dataset::WordId;
use mnn_serve::{BatchConfig, Session, SessionPool};
use mnn_tensor::kernels;
use mnn_tensor::quant::{quantize_row, QuantMatrix};
use mnn_tensor::softmax::LazyAccumulator;
use mnnfast::store::MemoryStore;
use mnnfast::{
    multi_hop_batch_segmented_budgeted, multi_hop_quant_batch_segmented_budgeted, Budget,
    Precision, Scratch, SegmentPlan, Trace,
};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Rows per chunk: the serving plan's chunk size
/// (`MnnFastConfig::new(64)` in `SessionConfig::default()`).
const CHUNK: usize = 64;
/// Batches the layer replay re-runs at most (a stride thins longer runs).
const MAX_REPLAYED_BATCHES: usize = 240;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function`.
    pub name: &'static str,
    /// Start, in nanoseconds from its pass's origin.
    pub start_ns: u64,
    /// End, in nanoseconds from its pass's origin.
    pub end_ns: u64,
    /// Index of the span whose inputs this call replays (a batch's pool
    /// dispatch for its session call, and so on down).
    pub parent: Option<usize>,
    /// Request id for per-request spans, batch id for per-batch spans.
    pub req: u64,
    /// Calls the span covers (kernel spans cover a whole pass).
    pub calls: u64,
    /// For client spans, when the request was actually sent.
    pub sent_ns: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Every span, in recording order (a span's index is its id).
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Records a span from `start` to `end`, timed against `origin`.
    pub fn record(
        &mut self,
        name: &'static str,
        origin: Instant,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        req: u64,
        calls: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(origin).as_nanos() as u64,
            parent,
            req,
            calls,
            sent_ns: None,
        });
        self.spans.len() - 1
    }

    /// Writes one JSON object per line; a span's id is its line number
    /// (from 0).
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sent = s.sent_ns.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"calls\":{},\"sent_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req, s.calls, sent
            )?;
        }
        out.flush()
    }
}

/// One thing the pool saw, in the order it saw it.
#[derive(Debug, Clone)]
pub enum Step {
    /// A sentence written to a tenant.
    Observe {
        /// Tenant.
        tenant: usize,
        /// The sentence.
        tokens: Vec<WordId>,
        /// The pool span that applied it.
        span: usize,
    },
    /// A batch dispatched for a tenant.
    Batch {
        /// Tenant.
        tenant: usize,
        /// Question-pool indices, in batch order.
        questions: Vec<usize>,
        /// The pool span that dispatched it.
        span: usize,
    },
}

/// What the pool replay measured.
#[derive(Debug, Default)]
pub struct PoolRun {
    /// Per ask: answer returned minus arrival (ms).
    pub latency_ms: Vec<f64>,
    /// Per ask: dispatch start minus enqueue (ms).
    pub queue_wait_ms: Vec<f64>,
    /// Observes and batches in order.
    pub steps: Vec<Step>,
    /// Time inside calls that dispatched batches (ns).
    pub dispatch_ns: f64,
    /// Batches dispatched.
    pub batches: usize,
    /// Questions answered.
    pub questions: usize,
}

/// Replays `records` (the traced window's requests) into an in-process
/// `SessionPool` configured like the daemon, driving it the way the
/// daemon's scheduler loop does. Open loops arrive at their recorded send
/// times. The closed loop is replayed as a closed loop: each tenant keeps
/// `inflight` of its recorded asks (in their recorded order) outstanding,
/// and the next one arrives the moment an answer frees a slot.
///
/// # Errors
///
/// Pool errors, described.
pub fn pool_pass(
    spec: &Spec,
    inputs: &Inputs,
    records: &[Record],
    tracer: &mut Tracer,
    client_spans: &[usize],
) -> Result<PoolRun, String> {
    let mut pool = SessionPool::new(inputs.model.clone(), spec.session_config())
        .map_err(|e| e.to_string())?
        .with_batching(BatchConfig {
            max_batch: DAEMON_MAX_BATCH,
            max_wait: Duration::from_micros(DAEMON_BATCH_WAIT_US),
        });
    for t in 0..TENANTS {
        pool.create_tenant(&token(t)).map_err(|e| e.to_string())?;
        for s in &inputs.setup[t] {
            pool.observe(&token(t), s).map_err(|e| e.to_string())?;
        }
    }
    let mut order: Vec<usize> = (0..records.len())
        .filter(|&i| records[i].outcome != Outcome::Lost)
        .collect();
    order.sort_by_key(|&i| records[i].sent_ns);
    let closed = match spec.traffic {
        Traffic::Closed { inflight } => Some(inflight),
        Traffic::Open { .. } => None,
    };
    // Closed loop: each tenant's asks in order, released as slots free up.
    let mut backlog: Vec<VecDeque<usize>> = vec![VecDeque::new(); TENANTS];
    // (record index, arrival): open loops arrive on schedule; in the
    // closed loop an ask arrives when the answer that frees its slot does.
    let mut ready: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut p = Replay {
        run: PoolRun::default(),
        pending: HashMap::new(),
        origin: Instant::now(),
    };
    let origin = p.origin;
    if let Some(inflight) = closed {
        for &i in &order {
            backlog[records[i].tenant].push_back(i);
        }
        for queue in &mut backlog {
            let n = inflight.min(queue.len());
            ready.extend(queue.drain(..n).map(|i| (i, origin)));
        }
    }
    let mut next = 0usize;
    loop {
        if closed.is_none() {
            while next < order.len()
                && origin.elapsed().as_nanos() as u64 >= records[order[next]].sent_ns
            {
                let i = order[next];
                ready.push_back((i, origin + Duration::from_nanos(records[i].sent_ns)));
                next += 1;
            }
        }
        while let Some((i, arrived)) = ready.pop_front() {
            let r = &records[i];
            let tenant = token(r.tenant);
            let t0 = Instant::now();
            match r.question {
                Some(q) => {
                    let (id, flushed) = pool
                        .enqueue_tracked(&tenant, &inputs.questions[q])
                        .map_err(|e| e.to_string())?;
                    let t1 = Instant::now();
                    p.pending.insert(id, (i, arrived, t0));
                    tracer.record(
                        "pool.enqueue_tracked",
                        origin,
                        (t0, t1),
                        Some(client_spans[i]),
                        i as u64,
                        1,
                    );
                    if !flushed.is_empty() {
                        let freed =
                            p.dispatch(tracer, "pool.enqueue_tracked", (t0, t1), flushed, records);
                        release(&mut backlog, &mut ready, &freed, t1);
                    }
                }
                None => {
                    let OpKind::Observe(tokens) =
                        &inputs.ops[r.op.expect("observes are open-loop ops")].kind
                    else {
                        unreachable!("observe records point at observe ops");
                    };
                    pool.observe(&tenant, tokens).map_err(|e| e.to_string())?;
                    let t1 = Instant::now();
                    let span = tracer.record(
                        "pool.observe",
                        origin,
                        (t0, t1),
                        Some(client_spans[i]),
                        i as u64,
                        1,
                    );
                    p.run.steps.push(Step::Observe {
                        tenant: r.tenant,
                        tokens: tokens.clone(),
                        span,
                    });
                }
            }
        }
        let t0 = Instant::now();
        let flushed = pool.flush_due().map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        if !flushed.is_empty() {
            let freed = p.dispatch(tracer, "pool.flush_due", (t0, t1), flushed, records);
            release(&mut backlog, &mut ready, &freed, t1);
        }
        if !ready.is_empty() {
            continue;
        }
        let arrivals_left = match closed {
            Some(_) => backlog.iter().any(|q| !q.is_empty()),
            None => next < order.len(),
        };
        if !arrivals_left && pool.pending_questions() == 0 {
            break;
        }
        let arrival = match closed {
            Some(_) => None,
            None => order
                .get(next)
                .map(|&i| origin + Duration::from_nanos(records[i].sent_ns)),
        };
        let wake = match (arrival, pool.next_flush_due()) {
            (Some(a), Some(f)) => a.min(f),
            (a, f) => a.or(f).unwrap_or_else(Instant::now),
        };
        let now = Instant::now();
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
    Ok(p.run)
}

/// Closed loop: each answered tenant releases its next recorded ask.
fn release(
    backlog: &mut [VecDeque<usize>],
    ready: &mut VecDeque<(usize, Instant)>,
    freed: &[usize],
    at: Instant,
) {
    for &t in freed {
        if let Some(i) = backlog[t].pop_front() {
            ready.push_back((i, at));
        }
    }
}

/// The pool replay's bookkeeping.
struct Replay {
    run: PoolRun,
    /// pool request id -> (record index, arrival, enqueue instant)
    pending: HashMap<u64, (usize, Instant, Instant)>,
    origin: Instant,
}

impl Replay {
    /// Books one dispatching call's answers as batches; returns the tenant
    /// of every answered ask.
    fn dispatch(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        (t0, t1): (Instant, Instant),
        answers: Vec<mnn_serve::BatchedAnswer>,
        records: &[Record],
    ) -> Vec<usize> {
        let run = &mut self.run;
        run.dispatch_ns += t1.duration_since(t0).as_nanos() as f64;
        // One call can dispatch several tenants' batches; answers come
        // grouped by tenant.
        let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
        for a in answers {
            let Some((i, arrived, enqueued)) = self.pending.remove(&a.request) else {
                continue;
            };
            if a.answer.is_ok() {
                run.latency_ms
                    .push(t1.saturating_duration_since(arrived).as_nanos() as f64 / 1e6);
            }
            run.queue_wait_ms
                .push(t0.saturating_duration_since(enqueued).as_nanos() as f64 / 1e6);
            match groups.last_mut() {
                Some((t, v)) if *t == a.tenant => v.push(i),
                _ => groups.push((a.tenant, vec![i])),
            }
        }
        let span = tracer.record(
            name,
            self.origin,
            (t0, t1),
            None,
            run.batches as u64,
            groups.len() as u64,
        );
        let mut freed = Vec::new();
        for (_, members) in groups {
            run.batches += 1;
            run.questions += members.len();
            let tenant = records[members[0]].tenant;
            freed.extend(members.iter().map(|&i| records[i].tenant));
            let questions = members
                .iter()
                .map(|&i| records[i].question.expect("batches hold asks"))
                .collect();
            run.steps.push(Step::Batch {
                tenant,
                questions,
                span,
            });
        }
        freed
    }
}

/// What the session, core, memnn and tensor replay measured.
#[derive(Debug, Default)]
pub struct LayerRun {
    /// Total time in `Session::ask_many` (ns).
    pub session_ask_ns: f64,
    /// Per-observe `Session::observe` durations (µs).
    pub session_observe_us: Vec<f64>,
    /// Total forward time (ns).
    pub forward_ns: f64,
    /// Total question-embedding time (ns).
    pub embed_q_ns: f64,
    /// Total output-logits time (ns).
    pub logits_ns: f64,
    /// Total chunk-kernel time over the same rows and questions (ns).
    pub tensor_ns: f64,
    /// Kernel flops over the same rows and questions (computed).
    pub tensor_flops: f64,
    /// Questions replayed.
    pub questions: usize,
    /// Per-push `MemoryStore::push` durations (µs).
    pub push_us: Vec<f64>,
    /// Per-sentence `embed_sentence_pair` durations (ns).
    pub embed_pair_ns: Vec<f64>,
    /// Per-question `embed_question` durations (ns).
    pub embed_question_ns: Vec<f64>,
    /// Per-question `output_logits` durations (ns).
    pub logits_each_ns: Vec<f64>,
    /// Tenant 0's store after the pass (for the kernel probe).
    pub store: Option<MemoryStore>,
}

/// Replays the pool's steps (then `extra` observes) one layer at a time:
/// each step runs through a `Session` first, then straight away one level
/// down — embedding, the batched forward over a `MemoryStore` filled by
/// `MemoryStore::push`, the output logits, and the chunk kernels over the
/// same rows and questions. Running the levels back to back per step keeps
/// host noise common to a layer and the layer below it, so their
/// difference (the self time) is not a difference of two noisy moments.
///
/// # Errors
///
/// Session or engine errors, described.
pub fn layer_pass(
    spec: &Spec,
    inputs: &Inputs,
    steps: &[Step],
    extra: &[(usize, Vec<WordId>)],
    tracer: &mut Tracer,
) -> Result<LayerRun, String> {
    let model = &inputs.model;
    let cfg = spec.session_config();
    let hops = model.config().hops;
    let int8 = spec.precision == Precision::Int8;
    let executor = cfg.plan.executor();
    let mut trace = Trace::disabled();
    let mut run = LayerRun::default();
    let (mut a, mut c) = (vec![0.0f32; ED], vec![0.0f32; ED]);
    let extra_steps: Vec<Step> = extra
        .iter()
        .map(|(t, s)| Step::Observe {
            tenant: *t,
            tokens: s.clone(),
            span: usize::MAX,
        })
        .collect();
    let all: Vec<&Step> = steps.iter().chain(&extra_steps).collect();
    // Every observe is replayed (memory must match); batches are thinned
    // to a stride so a long window's replay stays bounded in time.
    let batches = all
        .iter()
        .filter(|s| matches!(s, Step::Batch { .. }))
        .count();
    let stride = batches.div_ceil(MAX_REPLAYED_BATCHES).max(1);
    let origin = Instant::now();
    // One tenant at a time: tenants share nothing, and only one tenant's
    // session and store are resident at once.
    for t in 0..TENANTS {
        let mut session = Session::new(model.clone(), cfg).map_err(|e| e.to_string())?;
        let mut store = MemoryStore::new(ED, cfg.max_sentences);
        if int8 {
            store.enable_quant();
        }
        for s in &inputs.setup[t] {
            session.observe(s).map_err(|e| e.to_string())?;
            model.embed_sentence_pair(s, &mut a, &mut c);
            store.push(&a, &c);
        }
        let mut scratch = Scratch::new();
        let mut batch_k = 0usize;
        for (k, step) in all.iter().enumerate() {
            let req = k as u64;
            match step {
                Step::Observe { tenant, .. } | Step::Batch { tenant, .. } if *tenant != t => {
                    continue
                }
                Step::Batch { .. } => {
                    batch_k += 1;
                    if !(batch_k - 1).is_multiple_of(stride) {
                        continue;
                    }
                }
                Step::Observe { .. } => {}
            }
            match (*step).clone() {
                Step::Observe { tokens, span, .. } => {
                    let t0 = Instant::now();
                    session.observe(&tokens).map_err(|e| e.to_string())?;
                    let t1 = Instant::now();
                    let parent = (span != usize::MAX).then_some(span);
                    let session_span =
                        tracer.record("session.observe", origin, (t0, t1), parent, req, 1);
                    run.session_observe_us
                        .push(t1.duration_since(t0).as_nanos() as f64 / 1e3);

                    let t0 = Instant::now();
                    model.embed_sentence_pair(&tokens, &mut a, &mut c);
                    let t1 = Instant::now();
                    store.push(&a, &c);
                    let t2 = Instant::now();
                    tracer.record(
                        "memnn.embed_sentence_pair",
                        origin,
                        (t0, t1),
                        Some(session_span),
                        req,
                        1,
                    );
                    tracer.record(
                        "core.store_push",
                        origin,
                        (t1, t2),
                        Some(session_span),
                        req,
                        1,
                    );
                    run.embed_pair_ns
                        .push(t1.duration_since(t0).as_nanos() as f64);
                    run.push_us
                        .push(t2.duration_since(t1).as_nanos() as f64 / 1e3);
                }
                Step::Batch {
                    questions, span, ..
                } => {
                    let qs: Vec<Vec<WordId>> = questions
                        .iter()
                        .map(|&q| inputs.questions[q].clone())
                        .collect();
                    let t0 = Instant::now();
                    let answers = session.ask_many(&qs).map_err(|e| e.to_string())?;
                    let t1 = Instant::now();
                    black_box(&answers);
                    run.session_ask_ns += t1.duration_since(t0).as_nanos() as f64;
                    let parent = Some(tracer.record(
                        "session.ask_many",
                        origin,
                        (t0, t1),
                        Some(span),
                        req,
                        qs.len() as u64,
                    ));

                    let mut us = Vec::with_capacity(qs.len());
                    for q in &qs {
                        let mut u = vec![0.0f32; ED];
                        let t0 = Instant::now();
                        model.embed_question(q, &mut u);
                        let t1 = Instant::now();
                        tracer.record("memnn.embed_question", origin, (t0, t1), parent, req, 1);
                        let ns = t1.duration_since(t0).as_nanos() as f64;
                        run.embed_q_ns += ns;
                        run.embed_question_ns.push(ns);
                        us.push(u);
                    }
                    let budgets = vec![Budget::unlimited(); us.len()];
                    let plan = SegmentPlan::unsegmented(store.len());
                    let t0 = Instant::now();
                    let outs = if int8 {
                        store.enable_quant();
                        let (q_in, q_out) = store.quant().expect("mirror enabled");
                        multi_hop_quant_batch_segmented_budgeted(
                            &executor,
                            q_in,
                            q_out,
                            &plan,
                            &us,
                            hops,
                            &mut scratch,
                            &mut trace,
                            &budgets,
                        )
                    } else {
                        multi_hop_batch_segmented_budgeted(
                            &executor,
                            store.m_in(),
                            store.m_out(),
                            &plan,
                            &us,
                            hops,
                            &mut scratch,
                            &mut trace,
                            &budgets,
                        )
                    }
                    .map_err(|e| e.to_string())?;
                    let t1 = Instant::now();
                    let core_span = tracer.record(
                        "core.multi_hop_batch",
                        origin,
                        (t0, t1),
                        parent,
                        req,
                        us.len() as u64,
                    );
                    run.forward_ns += t1.duration_since(t0).as_nanos() as f64;
                    run.questions += us.len();
                    for out in outs {
                        let out = out.map_err(|e| e.to_string())?;
                        let t0 = Instant::now();
                        black_box(model.output_logits(&out.o, &out.u_last));
                        let t1 = Instant::now();
                        tracer.record("memnn.output_logits", origin, (t0, t1), parent, req, 1);
                        let ns = t1.duration_since(t0).as_nanos() as f64;
                        run.logits_ns += ns;
                        run.logits_each_ns.push(ns);
                    }
                    // The chunk kernels the forward runs, over the same rows
                    // and questions: per question, one fused chunk kernel per
                    // chunk per hop.
                    let rows = store.len();
                    let t0 = Instant::now();
                    let calls = if int8 {
                        let (q_in, q_out) = store.quant().expect("mirror enabled");
                        i8_pass(q_in, q_out, rows, &us, hops)
                    } else {
                        f32_pass(&store, rows, &us, hops)
                    };
                    let t1 = Instant::now();
                    tracer.record(
                        "tensor.chunk_kernels",
                        origin,
                        (t0, t1),
                        Some(core_span),
                        req,
                        calls,
                    );
                    run.tensor_ns += t1.duration_since(t0).as_nanos() as f64;
                    run.tensor_flops += (us.len() * rows * hops * 4 * ED) as f64;
                }
            }
        }
        if t == 0 {
            run.store = Some(store);
        }
    }
    Ok(run)
}

/// The f32 serving path's chunk kernels over `rows` for the questions
/// `us`, in the forward's order: chunk by chunk, every question's fused
/// chunk kernel while the chunk is cache-resident.
fn f32_pass(store: &MemoryStore, rows: usize, us: &[Vec<f32>], hops: usize) -> u64 {
    let mut accs = vec![LazyAccumulator::new(ED); us.len()];
    let mut calls = 0;
    for _ in 0..hops {
        let mut row = 0;
        while row < rows {
            let n = CHUNK.min(rows - row);
            let (m_in, m_out) = (
                store.m_in().rows_slice(row, n),
                store.m_out().rows_slice(row, n),
            );
            for (acc, u) in accs.iter_mut().zip(us) {
                acc.reset(ED);
                black_box(acc.accumulate_chunk(m_in, m_out, n, u, None));
                calls += 1;
            }
            row += n;
        }
    }
    black_box(&accs);
    calls
}

/// As [`f32_pass`] over the int8 planes, with each question quantized once.
fn i8_pass(
    q_in: &QuantMatrix,
    q_out: &QuantMatrix,
    rows: usize,
    us: &[Vec<f32>],
    hops: usize,
) -> u64 {
    let mut accs = vec![LazyAccumulator::new(ED); us.len()];
    let mut uqs = vec![vec![0i8; ED]; us.len()];
    let scales: Vec<f32> = us
        .iter()
        .zip(&mut uqs)
        .map(|(u, uq)| quantize_row(u, uq))
        .collect();
    let mut calls = 0;
    for _ in 0..hops {
        let mut row = 0;
        while row < rows {
            let n = CHUNK.min(rows - row);
            for ((acc, uq), &scale) in accs.iter_mut().zip(&uqs).zip(&scales) {
                acc.reset(ED);
                black_box(acc.accumulate_chunk_i8(
                    q_in.rows_slice(row, n),
                    q_in.scales_slice(row, n),
                    q_out.rows_slice(row, n),
                    q_out.scales_slice(row, n),
                    n,
                    uq,
                    scale,
                    None,
                ));
                calls += 1;
            }
            row += n;
        }
    }
    black_box(&accs);
    calls
}

/// Per-chunk kernel timings and the host copy bandwidth.
#[derive(Debug, Default)]
pub struct KernelProbe {
    /// `accumulate_chunk_batch` at the workload's occupancy, per chunk (ns).
    pub batch_chunk_ns: f64,
    /// `accumulate_chunk` (one question), per chunk (ns).
    pub fused_chunk_ns: f64,
    /// `accumulate_chunk_i8` (one question), per chunk (ns).
    pub i8_chunk_ns: f64,
    /// `embed_sum` of one question through `B` (ns).
    pub embed_sum_ns: f64,
    /// memcpy over a buffer the size of one tenant's planes, counting bytes
    /// read plus bytes written (GB/s).
    pub copy_gbps: f64,
}

/// Passes timed per kernel; the median pass is reported.
const PROBE_PASSES: usize = 3;

/// Times each chunk kernel over every chunk of `store` (so the kernels
/// stream the planes from memory as the forward does), the embedding
/// gather-sum, and a plane-sized memcpy. Spans go to `tracer`.
pub fn kernel_probe(
    spec: &Spec,
    inputs: &Inputs,
    store: &MemoryStore,
    occupancy: usize,
    tracer: &mut Tracer,
) -> KernelProbe {
    let rows = store.len();
    let chunks = rows.div_ceil(CHUNK).max(1) as f64;
    let nq = occupancy.max(1);
    let us: Vec<Vec<f32>> = (0..nq)
        .map(|q| {
            let mut u = vec![0.0f32; ED];
            inputs
                .model
                .embed_question(&inputs.questions[q % inputs.questions.len()], &mut u);
            u
        })
        .collect();
    let us_flat: Vec<f32> = us.concat();
    let origin = Instant::now();
    let timed = |name: &'static str, tracer: &mut Tracer, f: &mut dyn FnMut() -> u64| -> f64 {
        let passes: Vec<f64> = (0..PROBE_PASSES)
            .map(|_| {
                let t0 = Instant::now();
                let calls = f();
                let t1 = Instant::now();
                tracer.record(name, origin, (t0, t1), None, 0, calls);
                t1.duration_since(t0).as_nanos() as f64
            })
            .collect();
        crate::stats::median(&passes)
    };
    let (m_in, m_out) = (store.m_in(), store.m_out());
    let mut accs = vec![LazyAccumulator::new(ED); nq];
    let mut logits = vec![0.0f32; nq * CHUNK];
    let batch_pass = timed("tensor.accumulate_chunk_batch", tracer, &mut || {
        let (mut skipped, live, th) = (vec![0u64; nq], vec![true; nq], vec![None; nq]);
        let mut row = 0;
        while row < rows {
            let n = CHUNK.min(rows - row);
            LazyAccumulator::accumulate_chunk_batch(
                &mut accs,
                m_in.rows_slice(row, n),
                m_out.rows_slice(row, n),
                n,
                &us_flat,
                &th,
                &live,
                true,
                &mut logits,
                &mut skipped,
            );
            row += n;
        }
        black_box(&accs);
        chunks as u64
    });
    timed("tensor.gemm_chunk", tracer, &mut || {
        let mut row = 0;
        while row < rows {
            let n = CHUNK.min(rows - row);
            kernels::gemm_chunk(
                m_in.rows_slice(row, n),
                n,
                &us_flat,
                nq,
                &mut logits[..nq * n],
            );
            row += n;
        }
        black_box(&logits);
        chunks as u64
    });
    let fused_pass = timed("tensor.accumulate_chunk", tracer, &mut || {
        f32_pass(store, rows, &us[..1], 1)
    });
    let owned;
    let (q_in, q_out) = match store.quant() {
        Some(planes) => planes,
        None => {
            owned = (
                QuantMatrix::from_matrix_prefix(m_in, rows),
                QuantMatrix::from_matrix_prefix(m_out, rows),
            );
            (&owned.0, &owned.1)
        }
    };
    let i8_pass_ns = timed("tensor.accumulate_chunk_i8", tracer, &mut || {
        i8_pass(q_in, q_out, rows, &us[..1], 1)
    });
    let mut uq = vec![0i8; ED];
    quantize_row(&us[0], &mut uq);
    timed("tensor.dot_i8", tracer, &mut || {
        let mut sum = 0i64;
        for r in 0..rows {
            sum += i64::from(kernels::dot_i8(q_in.row(r), &uq));
        }
        black_box(sum);
        rows as u64
    });

    let b = inputs.model.b.as_slice();
    let mut out = vec![0.0f32; ED];
    let embeds: Vec<f64> = (0..256)
        .map(|k| {
            let tokens = &inputs.questions[k % inputs.questions.len()];
            out.fill(0.0);
            let t0 = Instant::now();
            kernels::embed_sum(b, ED, tokens, &mut out);
            let t1 = Instant::now();
            black_box(&out);
            tracer.record("tensor.embed_sum", origin, (t0, t1), None, k as u64, 1);
            t1.duration_since(t0).as_nanos() as f64
        })
        .collect();

    let row_bytes = if spec.precision == Precision::Int8 {
        ED + 4
    } else {
        4 * ED
    };
    let plane_bytes = 2 * rows * row_bytes;
    let src = vec![1u8; plane_bytes];
    let mut dst = vec![0u8; plane_bytes];
    let copy_ns = timed("host.memcpy", tracer, &mut || {
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
        1
    });
    KernelProbe {
        batch_chunk_ns: batch_pass / chunks,
        fused_chunk_ns: fused_pass / chunks,
        i8_chunk_ns: i8_pass_ns / chunks,
        embed_sum_ns: crate::stats::median(&embeds),
        copy_gbps: 2.0 * plane_bytes as f64 / copy_ns,
    }
}
