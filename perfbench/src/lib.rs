//! One end-to-end serving benchmark for this repository.
//!
//! A run builds the `mnn-serve` daemon from source, starts it as a child
//! process, loads two tenants' memories over loopback, and drives one of
//! three workloads (`interactive`, `saturate`, `ingest`; see
//! [`workload`]) for a fixed window, checking every answer against
//! in-process reference sessions. An untraced run prints the end-to-end
//! metrics; a traced run additionally replays the window's inputs through
//! each layer in-process ([`replay`]) and prints the per-layer metrics.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

#![deny(missing_docs)]

pub mod daemon;
pub mod host;
pub mod loadgen;
pub mod reference;
pub mod replay;
pub mod stats;
pub mod workload;

use daemon::Daemon;
use loadgen::{Outcome, Record, Window};
use replay::Tracer;
use stats::{median, metric, quantile, Metric};
use std::path::PathBuf;
use std::time::Duration;
use workload::{Inputs, OpKind, Spec, Traffic, TENANTS};

/// A scored run is invalid when the generator's send lag p99 exceeds this:
/// the offered load would no longer be the load the workload defines.
pub const LAG_P99_BOUND_MS: f64 = 50.0;
/// How long the generator waits for outstanding responses after its last
/// send before counting them lost.
const DRAIN: Duration = Duration::from_secs(10);

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed window length in seconds.
    pub seconds: f64,
    /// Run the traced replay and print per-layer metrics.
    pub trace: bool,
    /// Shrink the workload for the benchmark's own tests.
    pub smoke: bool,
    /// Corrupt the reference answers (tests only: proves wrong answers
    /// are counted).
    pub corrupt_reference: bool,
}

impl Options {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A usage message.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
            corrupt_reference: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("missing value for {a}"));
            match a.as_str() {
                "--workload" => o.workload = value()?.clone(),
                "--seed" => o.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => o.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if Spec::named(&o.workload, false).is_none() {
            return Err(format!(
                "--workload must be one of {}",
                workload::NAMES.join(", ")
            ));
        }
        if !o.seconds.is_finite() || o.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(o)
    }
}

/// How every operation sent during a run ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations sent (asks and observes).
    pub sent: u64,
    /// Asks answered and observes acknowledged.
    pub answered: u64,
    /// Typed `Overloaded` refusals.
    pub refused: u64,
    /// Typed errors.
    pub errored: u64,
    /// Never answered.
    pub lost: u64,
    /// Answered, but not bit-identical to the reference.
    pub wrong: u64,
}

impl Tally {
    fn add(&mut self, records: &[Record]) {
        for r in records {
            self.sent += 1;
            match r.outcome {
                Outcome::Answer { .. } | Outcome::Acked => self.answered += 1,
                Outcome::Refused => self.refused += 1,
                Outcome::Errored => self.errored += 1,
                Outcome::Lost => self.lost += 1,
            }
        }
    }

    /// Refused, errored, lost and wrong operations.
    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.lost + self.wrong
    }
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Printed metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The operation tally.
    pub tally: Tally,
    /// Lines describing the host and the run.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every answer matched its reference.
    pub fn correct(&self) -> bool {
        self.tally.wrong == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    stats::json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.sent.max(1),
            self.tally.failed(),
            metrics.join(", ")
        )
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Latencies (ms) of `records` that ended in `want`-shaped outcomes.
fn latencies(records: &[Record], asks: bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.question.is_some() == asks)
        .filter(|r| matches!(r.outcome, Outcome::Answer { .. } | Outcome::Acked))
        .filter_map(Record::latency_ms)
        .collect()
}

/// Counts answers that differ from `expected[tenant][question]`.
fn count_wrong(records: &[Record], expected: &reference::Answers) -> u64 {
    records
        .iter()
        .filter(|r| match (r.question, r.outcome) {
            (
                Some(q),
                Outcome::Answer {
                    word, prob_bits, ..
                },
            ) => expected[r.tenant][q] != (word, prob_bits),
            _ => false,
        })
        .count() as u64
}

/// Correct answers per second over the timed window. In the closed loop
/// only answers that arrived inside the window count; in open loops the
/// window runs from its start to the last answer, so a server that falls
/// behind reads slower.
fn ask_qps(w: &Window, traffic: Traffic, expected: Option<&reference::Answers>) -> f64 {
    let good: Vec<&Record> = w
        .records
        .iter()
        .filter(|r| match (r.question, r.outcome) {
            (
                Some(q),
                Outcome::Answer {
                    word, prob_bits, ..
                },
            ) => expected.is_none_or(|e| e[r.tenant][q] == (word, prob_bits)),
            _ => false,
        })
        .collect();
    match traffic {
        Traffic::Closed { .. } => {
            let inside = good
                .iter()
                .filter(|r| (r.done_ns as f64) <= w.seconds * 1e9);
            inside.count() as f64 / w.seconds
        }
        Traffic::Open { .. } => {
            let last = good.iter().map(|r| r.done_ns).max().unwrap_or(0).max(1);
            good.len() as f64 / (last as f64 / 1e9)
        }
    }
}

/// Each tenant's set-up sentences, as the reference sessions observe them.
fn setup_streams(inputs: &Inputs) -> Vec<Vec<&[u32]>> {
    inputs
        .setup
        .iter()
        .map(|s| s.iter().map(Vec::as_slice).collect())
        .collect()
}

fn run_window(
    spec: &Spec,
    inputs: &Inputs,
    daemon: &mut Daemon,
    seconds: f64,
) -> Result<Window, String> {
    match spec.traffic {
        Traffic::Open { .. } => loadgen::run_open(
            &mut daemon.conns,
            &inputs.ops,
            &inputs.questions,
            seconds,
            DRAIN,
        ),
        Traffic::Closed { inflight } => loadgen::run_closed(
            &mut daemon.conns,
            &inputs.questions,
            inflight,
            seconds,
            DRAIN,
            inputs.seed,
        ),
    }
}

/// Generator validity: lag within bound, threads and connections within
/// `nproc`. Returns the lag p50 and p99 (ms).
fn check_generator(w: &Window, nproc: usize) -> Result<(f64, f64), String> {
    let lags: Vec<f64> = w.records.iter().map(|r| ms(r.lag_ns)).collect();
    let (p50, p99) = (quantile(&lags, 0.5), quantile(&lags, 0.99));
    if w.threads as usize > nproc || w.connections > nproc {
        return Err(format!(
            "invalid run: the generator used {} threads and {} connections on {nproc} CPUs",
            w.threads, w.connections
        ));
    }
    if p99 > LAG_P99_BOUND_MS {
        return Err(format!(
            "invalid run: generator send lag p99 {p99:.3} ms exceeds {LAG_P99_BOUND_MS} ms"
        ));
    }
    Ok((p50, p99))
}

/// Runs one workload end to end.
///
/// # Errors
///
/// Build, start-up, transport or validity failures, described. Wrong
/// answers are not errors: they are counted in the report.
pub fn run(opts: &Options) -> Result<Report, String> {
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("MNNFAST_"))
    {
        return Err(format!(
            "{} is set: the in-process references must see the daemon's defaults",
            k.to_string_lossy()
        ));
    }
    let spec = Spec::named(&opts.workload, opts.smoke).ok_or("unknown workload")?;
    let repo = daemon::repo_root();
    let bin = daemon::build(&repo)?;
    let nproc = host::nproc();
    let mut notes = vec![
        format!(
            "workload {} seed {} seconds {} trace {}",
            spec.name,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        ),
        format!(
            "host: nproc {nproc}, cpu {}, simd {}, {}",
            host::cpu_model(),
            host::simd_backend(),
            host::revision(&repo)
        ),
    ];
    let out_dir: PathBuf = repo.join("perfbench").join("out").join(format!(
        "{}-{}-{}",
        spec.name,
        opts.seed,
        u8::from(opts.trace)
    ));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;

    let inputs = Inputs::generate(&spec, opts.seed, opts.seconds);
    let config = spec.session_config();
    // Without observes in the window, memory during the window is the
    // set-up memory, and every answer has one reference.
    let static_memory =
        !matches!(spec.traffic, Traffic::Open { observe_share, .. } if observe_share > 0.0);
    let mut expected = if static_memory {
        Some(reference::answers(
            &inputs.model,
            config,
            &setup_streams(&inputs),
            &inputs.questions,
        )?)
    } else {
        None
    };
    if opts.corrupt_reference {
        if let Some(e) = &mut expected {
            for a in &mut e[0] {
                a.1 ^= 1;
            }
        }
    }
    let model_path = out_dir.join("model.bin");
    inputs.write_model(&model_path)?;

    // Set-up, several times; the last daemon stays up for the window.
    let setups = if opts.trace { 1 } else { spec.setups };
    let mut setup_s = Vec::with_capacity(setups);
    let mut daemon = None;
    for k in 0..setups {
        let (d, secs) = Daemon::start(&bin, &model_path, &spec, &inputs)?;
        setup_s.push(secs);
        if k + 1 < setups {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one set-up");

    // Timed windows. The traced run measures an untraced window first, so
    // the tracing overhead is the gap between the two.
    let mut tally = Tally::default();
    let mut windows = Vec::new();
    let ticks0 = host::cpu_ticks();
    let mut stats_delta = None;
    if opts.trace {
        windows.push(run_window(&spec, &inputs, &mut daemon, opts.seconds)?);
        let before = daemon.conns[0].stats()?;
        windows.push(run_window(&spec, &inputs, &mut daemon, opts.seconds)?);
        let after = daemon.conns[0].stats()?;
        stats_delta = Some((before, after));
    } else {
        windows.push(run_window(&spec, &inputs, &mut daemon, opts.seconds)?);
    }
    let rss_mib = daemon.peak_rss_mib();
    let ticks1 = host::cpu_ticks();
    let steal = (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64;
    let scored = windows.last().expect("one window ran");
    let (lag_p50, lag_p99) = check_generator(scored, nproc)?;

    // After the window: the observe probe, or the ingest answer check.
    let probe_ops: Vec<(usize, OpKind)> = inputs
        .probe
        .iter()
        .map(|(t, s)| (*t, OpKind::Observe(s.clone())))
        .collect();
    let probe = loadgen::run_sequential(&mut daemon.conns, &probe_ops, &inputs.questions)?;
    let check_ops: Vec<(usize, OpKind)> = if static_memory {
        Vec::new()
    } else {
        (0..TENANTS)
            .flat_map(|t| (0..inputs.questions.len()).map(move |q| (t, OpKind::Ask(q))))
            .collect()
    };
    let checked = loadgen::run_sequential(&mut daemon.conns, &check_ops, &inputs.questions)?;
    daemon.stop()?;

    for w in &windows {
        tally.add(&w.records);
    }
    tally.add(&probe);
    tally.add(&checked);
    match &expected {
        Some(e) => {
            for w in &windows {
                tally.wrong += count_wrong(&w.records, e);
            }
        }
        None => {
            // Memory after every acknowledged write, in each tenant's
            // send order (one connection per tenant keeps that order).
            let mut streams = setup_streams(&inputs);
            for w in &windows {
                for r in &w.records {
                    if let (Some(op), Outcome::Acked) = (r.op, r.outcome) {
                        if let OpKind::Observe(s) = &inputs.ops[op].kind {
                            streams[r.tenant].push(s);
                        }
                    }
                }
            }
            // The window evicts oldest-first and every row is embedded and
            // quantized on its own, so a session fed only the last `window`
            // sentences holds exactly the memory the full replay would.
            if let Some(window) = spec.window {
                for s in &mut streams {
                    let drop = s.len().saturating_sub(window);
                    s.drain(..drop);
                }
            }
            let mut finals =
                reference::answers(&inputs.model, config, &streams, &inputs.questions)?;
            if opts.corrupt_reference {
                for a in &mut finals[0] {
                    a.1 ^= 1;
                }
            }
            tally.wrong += count_wrong(&checked, &finals);
        }
    }

    let ask_lat = latencies(&scored.records, true);
    let mut obs_lat = latencies(&scored.records, false);
    if obs_lat.is_empty() {
        obs_lat = latencies(&probe, false);
    }
    let qps = ask_qps(scored, spec.traffic, expected.as_ref());
    notes.push(format!(
        "generator: lag p50 {lag_p50:.4} ms p99 {lag_p99:.4} ms (bound {LAG_P99_BOUND_MS} ms), {} threads, {} connections",
        scored.threads, scored.connections
    ));
    notes.push(format!(
        "tally: sent {} answered {} refused {} errored {} lost {} wrong {}; failed_frac {} (1)",
        tally.sent,
        tally.answered,
        tally.refused,
        tally.errored,
        tally.lost,
        tally.wrong,
        tally.failed() as f64 / tally.sent.max(1) as f64
    ));
    notes.push(format!(
        "samples: {} asks, {} observes; set-ups {:?} s; host steal {:.2}% of CPU time during the windows",
        ask_lat.len(),
        obs_lat.len(),
        setup_s,
        100.0 * steal
    ));
    for (what, lat) in [("ask", &ask_lat), ("observe", &obs_lat)] {
        notes.push(format!(
            "{what} latency ms: p50 {:.4} p90 {:.4} p95 {:.4} p99 {:.4} max {:.4}",
            quantile(lat, 0.5),
            quantile(lat, 0.9),
            quantile(lat, 0.95),
            quantile(lat, 0.99),
            quantile(lat, 1.0)
        ));
    }

    let metrics = if opts.trace {
        let (before, after) = stats_delta.expect("traced runs scrape stats");
        let untraced_p50 = median(&latencies(&windows[0].records, true));
        let layers = LayerInputs {
            spec: &spec,
            inputs: &inputs,
            window: scored,
            untraced_ask_p50: untraced_p50,
            ask_qps: qps,
            tails: (stats::tail_p99(&ask_lat), stats::tail_p99(&obs_lat)),
            before,
            after,
            lag: (lag_p50, lag_p99),
        };
        let (metrics, tracer, lines) = per_layer(&layers)?;
        notes.extend(lines);
        let path = out_dir.join("spans.jsonl");
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!(
            "spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        ));
        metrics
    } else {
        vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("ask_qps", qps, "1/s"),
            metric("ask_p50_ms", quantile(&ask_lat, 0.5), "ms"),
            metric("observe_p50_ms", quantile(&obs_lat, 0.5), "ms"),
            metric("rss_mib", rss_mib, "MiB"),
        ]
    };
    Ok(Report {
        metrics,
        tally,
        notes,
    })
}

struct LayerInputs<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    window: &'a Window,
    untraced_ask_p50: f64,
    ask_qps: f64,
    tails: (f64, f64),
    before: mnn_net::NetStatsWire,
    after: mnn_net::NetStatsWire,
    lag: (f64, f64),
}

/// The traced run's per-layer metrics: client spans from the traced
/// window, then the in-process replays of its inputs.
fn per_layer(l: &LayerInputs<'_>) -> Result<(Vec<Metric>, Tracer, Vec<String>), String> {
    let (spec, inputs, w) = (l.spec, l.inputs, l.window);
    let mut tracer = Tracer::default();
    let client_spans: Vec<usize> = w
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            tracer.spans.push(replay::Span {
                name: if r.question.is_some() {
                    "client.ask"
                } else {
                    "client.observe"
                },
                start_ns: r.due_ns,
                end_ns: if r.done_ns == u64::MAX {
                    r.due_ns
                } else {
                    r.done_ns
                },
                parent: None,
                req: i as u64,
                calls: 1,
                sent_ns: Some(r.sent_ns),
            });
            tracer.spans.len() - 1
        })
        .collect();

    let pool = replay::pool_pass(spec, inputs, &w.records, &mut tracer, &client_spans)?;
    let mut core = replay::layer_pass(spec, inputs, &pool.steps, &inputs.probe, &mut tracer)?;
    let occupancy = pool.questions as f64 / pool.batches.max(1) as f64;
    let store = core.store.take().expect("core pass keeps a store");
    let probe = replay::kernel_probe(
        spec,
        inputs,
        &store,
        occupancy.round() as usize,
        &mut tracer,
    );
    drop(store);

    let (b, a) = (&l.before, &l.after);
    let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
    let occ: Vec<f64> = (0..mnn_serve::OCCUPANCY_BUCKETS)
        .map(|i| d(b.batch_occupancy[i], a.batch_occupancy[i]))
        .collect();
    let batches = d(b.batches_dispatched, a.batches_dispatched);
    let refused = w
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Refused | Outcome::Errored))
        .count() as f64;
    let client_ask_p50 = median(&latencies(&w.records, true));
    let pool_p50 = median(&pool.latency_ms);
    let enc: Vec<f64> = w.records.iter().map(|r| r.encode_ns as f64).collect();
    let dec: Vec<f64> = w
        .records
        .iter()
        .filter(|r| r.outcome != Outcome::Lost)
        .map(|r| r.decode_ns as f64)
        .collect();

    // Per-question times from the replays (ns). The layer pass may replay
    // a stride of the pool's batches, so every layer is normalized by the
    // questions it saw.
    let nq = core.questions.max(1) as f64;
    let forward = core.forward_ns / nq;
    let memnn = (core.embed_q_ns + core.logits_ns) / nq;
    let session_q = core.session_ask_ns / nq;
    let pool_q = pool.dispatch_ns / pool.questions.max(1) as f64;
    let tensor_q = core.tensor_ns / nq;
    let session_self = session_q - forward - memnn;
    let core_self = forward - tensor_q;
    let pool_self = pool_q - session_q;
    let rows = spec.rows() as f64;
    let hops = inputs.model.config().hops as f64;
    let row_bytes = if spec.precision == mnnfast::Precision::Int8 {
        workload::ED as f64 + 4.0
    } else {
        4.0 * workload::ED as f64
    };
    // Computed from tensor sizes, not measured: a batch streams both
    // planes once per hop, shared by its questions.
    let bytes_per_q = 2.0 * rows * row_bytes * hops / occupancy.max(1.0);
    let flops_per_q = rows * hops * 4.0 * workload::ED as f64;
    let core_gbps = bytes_per_q / forward;
    let queue_p50 = quantile(&pool.queue_wait_ms, 0.5);

    // Accounting checks (stated tolerances in the README).
    let net_self = client_ask_p50 - pool_p50;
    let per_batch_ms = pool_q * occupancy / 1e6;
    let self_sum = net_self + queue_p50 + per_batch_ms;
    let sched_busy = pool_q / 1e9 * l.ask_qps;
    let lines = vec![
        format!(
            "accounting: net self {net_self:.4} + queue wait p50 {queue_p50:.4} + dispatch/batch {per_batch_ms:.4} = {self_sum:.4} ms vs untraced ask p50 {:.4} ms",
            l.untraced_ask_p50
        ),
        format!(
            "accounting: dispatch per question {:.4} ms x ask_qps {:.2} = scheduler busy share {sched_busy:.4}",
            pool_q / 1e6,
            l.ask_qps
        ),
        format!(
            "self time per question (us): pool {:.3}, session {:.3}, core {:.3}, memnn {:.3}, tensor {:.3}",
            pool_self / 1e3,
            session_self / 1e3,
            core_self / 1e3,
            memnn / 1e3,
            tensor_q / 1e3
        ),
    ];
    let metrics = vec![
        metric("client.ask_p99_ms", l.tails.0, "ms"),
        metric("client.observe_p99_ms", l.tails.1, "ms"),
        metric("gen.lag_p50_ms", l.lag.0, "ms"),
        metric("gen.lag_p99_ms", l.lag.1, "ms"),
        metric("gen.threads", w.threads as f64, "count"),
        metric("gen.connections", w.connections as f64, "count"),
        metric(
            "net.frames_in",
            d(b.net_frames_in, a.net_frames_in),
            "count",
        ),
        metric(
            "net.frames_out",
            d(b.net_frames_out, a.net_frames_out),
            "count",
        ),
        metric("net.refused", refused, "count"),
        metric("net.self_p50_ms", net_self, "ms"),
        metric("wire.encode_ns", median(&enc), "ns"),
        metric("wire.decode_ns", median(&dec), "ns"),
        metric("pool.batches", batches, "count"),
        metric(
            "pool.occupancy_mean",
            d(b.batched_questions, a.batched_questions) / batches.max(1.0),
            "1",
        ),
        metric("pool.occ_1", occ[0], "count"),
        metric("pool.occ_2", occ[1], "count"),
        metric("pool.occ_3-4", occ[2], "count"),
        metric("pool.occ_5-8", occ[3], "count"),
        metric("pool.occ_9-16", occ[4], "count"),
        metric("pool.occ_17-32", occ[5], "count"),
        metric("pool.occ_33-64", occ[6], "count"),
        metric("pool.occ_65plus", occ[7], "count"),
        metric("pool.queue_wait_p50_ms", queue_p50, "ms"),
        metric(
            "pool.queue_wait_p99_ms",
            quantile(&pool.queue_wait_ms, 0.99),
            "ms",
        ),
        metric("pool.shed", d(b.shed_questions, a.shed_questions), "count"),
        metric(
            "pool.deadline_misses",
            d(b.deadline_misses, a.deadline_misses),
            "count",
        ),
        metric(
            "pool.degraded",
            d(b.degraded_answers, a.degraded_answers),
            "count",
        ),
        metric("session.ask_many_us_per_q", session_q / 1e3, "us"),
        metric(
            "session.observe_p50_us",
            quantile(&core.session_observe_us, 0.5),
            "us",
        ),
        metric(
            "session.observe_p99_us",
            quantile(&core.session_observe_us, 0.99),
            "us",
        ),
        metric("session.self_share", session_self / session_q, "1"),
        metric("core.forward_us_per_q", forward / 1e3, "us"),
        metric("core.bytes_per_q", bytes_per_q, "B"),
        metric("core.flops_per_q", flops_per_q, "flop"),
        metric("core.gbps", core_gbps, "GB/s"),
        metric("core.gflops", flops_per_q / forward, "GFLOP/s"),
        metric("core.roofline_frac", core_gbps / probe.copy_gbps, "1"),
        metric("core.store_push_p50_us", quantile(&core.push_us, 0.5), "us"),
        metric(
            "core.store_push_p99_us",
            quantile(&core.push_us, 0.99),
            "us",
        ),
        metric("core.self_share", core_self / forward, "1"),
        metric("tensor.batch_chunk_ns", probe.batch_chunk_ns, "ns"),
        metric("tensor.fused_chunk_ns", probe.fused_chunk_ns, "ns"),
        metric("tensor.i8_chunk_ns", probe.i8_chunk_ns, "ns"),
        metric("tensor.embed_sum_ns", probe.embed_sum_ns, "ns"),
        metric(
            "tensor.gflops",
            core.tensor_flops / core.tensor_ns,
            "GFLOP/s",
        ),
        metric("host.copy_gbps", probe.copy_gbps, "GB/s"),
        metric("memnn.embed_pair_ns", median(&core.embed_pair_ns), "ns"),
        metric(
            "memnn.embed_question_ns",
            median(&core.embed_question_ns),
            "ns",
        ),
        metric("memnn.logits_us", median(&core.logits_each_ns) / 1e3, "us"),
        metric("trace.p50_ratio", client_ask_p50 / l.untraced_ask_p50, "1"),
        metric("check.self_sum_frac", self_sum / l.untraced_ask_p50, "1"),
        metric("check.sched_busy_frac", sched_busy, "1"),
    ];
    Ok((metrics, tracer, lines))
}
