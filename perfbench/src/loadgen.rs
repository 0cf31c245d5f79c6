//! The load generator: one process, one connection per tenant, and two
//! threads at most. In open loops the calling thread is the sender — it
//! sleeps until each scheduled send — and one receiver thread waits on
//! both sockets with `poll(2)`. In the closed loop the receiver also sends
//! each follow-up ask the moment an answer frees its slot, while the
//! calling thread only waits.
//!
//! Sends are never paced with socket read timeouts: `SO_RCVTIMEO` rounds
//! up to kernel ticks, which added milliseconds of latency in probes.

use crate::daemon::Conn;
use crate::host;
use crate::workload::{Op, OpKind, Rng};
use mnn_dataset::WordId;
use mnn_net::NetFrame;
use std::io::Write;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How the daemon settled one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No response before the drain deadline.
    Lost,
    /// An answer, with its word and probability bits.
    Answer {
        /// Answer word id.
        word: u32,
        /// `f32::to_bits` of its probability.
        prob_bits: u32,
        /// Whether the daemon marked it degraded.
        degraded: bool,
    },
    /// An observe acknowledgement.
    Acked,
    /// A typed `Overloaded` refusal.
    Refused,
    /// A typed `Error`.
    Errored,
}

/// One request's life, with times in nanoseconds from the window's start.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Tenant (and connection) it went to.
    pub tenant: usize,
    /// For asks, the question's index in the pool.
    pub question: Option<usize>,
    /// For open-loop operations, the index of the schedule entry.
    pub op: Option<usize>,
    /// When it was due: the schedule in open loops, the send itself in the
    /// closed loop.
    pub due_ns: u64,
    /// When its frame was written.
    pub sent_ns: u64,
    /// When its response was decoded (`u64::MAX` when lost).
    pub done_ns: u64,
    /// How the request ended.
    pub outcome: Outcome,
    /// How late the generator sent it: behind schedule in open loops,
    /// after the answer that freed its slot in the closed loop.
    pub lag_ns: u64,
    /// Nanoseconds `NetFrame::encode` took for its frame.
    pub encode_ns: u64,
    /// Nanoseconds `NetFrame::decode` took for its response.
    pub decode_ns: u64,
}

impl Record {
    /// Latency from due to done, in milliseconds (`None` when unanswered).
    pub fn latency_ms(&self) -> Option<f64> {
        (self.done_ns != u64::MAX).then(|| self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6)
    }
}

/// The result of one timed window.
#[derive(Debug, Clone)]
pub struct Window {
    /// Every request sent, in send order per connection.
    pub records: Vec<Record>,
    /// The nominal window length in seconds.
    pub seconds: f64,
    /// Threads the generator ran while the window ran (the calling thread
    /// and the ones it started).
    pub threads: u64,
    /// Connections the generator used.
    pub connections: usize,
}

/// Response the receiver decoded, before it is joined to its request.
struct Settled {
    id: usize,
    done_ns: u64,
    outcome: Outcome,
    decode_ns: u64,
}

fn settle(frame: NetFrame, base: Instant, decode_ns: u64) -> Option<Settled> {
    let done_ns = base.elapsed().as_nanos() as u64;
    let (id, outcome) = match frame {
        NetFrame::Answer {
            id,
            word,
            probability,
            degraded,
            ..
        } => (
            id,
            Outcome::Answer {
                word,
                prob_bits: probability.to_bits(),
                degraded,
            },
        ),
        NetFrame::ObserveAck { id, .. } => (id, Outcome::Acked),
        NetFrame::Overloaded { id, .. } => (id, Outcome::Refused),
        NetFrame::Error { id, .. } => (id, Outcome::Errored),
        _ => return None,
    };
    Some(Settled {
        id: usize::try_from(id).ok()?,
        done_ns,
        outcome,
        decode_ns,
    })
}

/// The request frame for one operation.
fn op_frame(id: u64, kind: &OpKind, questions: &[Vec<WordId>]) -> NetFrame {
    match kind {
        OpKind::Ask(q) => NetFrame::AskTokens {
            id,
            tokens: questions[*q].clone(),
        },
        OpKind::Observe(tokens) => NetFrame::ObserveTokens {
            id,
            tokens: tokens.clone(),
        },
    }
}

fn fds(conns: &[Conn]) -> Vec<i32> {
    conns.iter().map(|c| c.stream.as_raw_fd()).collect()
}

/// Runs an open-loop schedule: `ops[i]` is sent at its due time with
/// request id `i`, whatever the daemon is doing. Requests unanswered
/// `drain` after the last send are lost.
///
/// # Errors
///
/// Socket failures, described.
pub fn run_open(
    conns: &mut [Conn],
    ops: &[Op],
    questions: &[Vec<WordId>],
    seconds: f64,
    drain: Duration,
) -> Result<Window, String> {
    let n = ops.len();
    let mut writers: Vec<TcpStream> = conns
        .iter()
        .map(|c| c.stream.try_clone().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let sender_done = AtomicBool::new(false);
    // A short lead lets the receiver reach its first poll before the
    // first send is due.
    let base = Instant::now() + Duration::from_millis(20);
    let fds = fds(conns);
    let before = host::own_threads();
    let (sends, settled, threads) = std::thread::scope(|s| {
        let receiver = s.spawn(|| -> Result<Vec<Settled>, String> {
            let mut out = Vec::with_capacity(n);
            let mut deadline: Option<Instant> = None;
            while out.len() < n {
                if sender_done.load(Ordering::Acquire)
                    && Instant::now() >= *deadline.get_or_insert_with(|| Instant::now() + drain)
                {
                    break;
                }
                let ready = host::poll_readable(&fds, 5).map_err(|e| format!("poll: {e}"))?;
                for (c, r) in ready.into_iter().enumerate() {
                    if !r {
                        continue;
                    }
                    conns[c].fill()?;
                    while let Some((frame, dec)) = conns[c].take()? {
                        out.extend(settle(frame, base, dec));
                    }
                }
            }
            Ok(out)
        });
        // The calling thread plus every thread started since `before`.
        let threads = 1 + host::own_threads().saturating_sub(before);
        let mut sends: Vec<(u64, u64, u64)> = Vec::with_capacity(n);
        let mut failure = None;
        for (i, op) in ops.iter().enumerate() {
            let due = base + Duration::from_nanos(op.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let frame = op_frame(i as u64, &op.kind, questions);
            let t0 = Instant::now();
            let bytes = frame.encode();
            let encode_ns = t0.elapsed().as_nanos() as u64;
            let sent_ns = base.elapsed().as_nanos() as u64;
            if let Err(e) = writers[op.tenant].write_all(&bytes) {
                failure = Some(format!("send: {e}"));
                break;
            }
            sends.push((sent_ns, encode_ns, sent_ns.saturating_sub(op.due_ns)));
        }
        sender_done.store(true, Ordering::Release);
        let settled = receiver.join().expect("receiver thread panicked");
        match failure {
            Some(e) => Err(e),
            None => settled.map(|s| (sends, s, threads)),
        }
    })?;
    let mut records: Vec<Record> = ops
        .iter()
        .zip(&sends)
        .enumerate()
        .map(|(i, (op, &(sent_ns, encode_ns, lag_ns)))| Record {
            tenant: op.tenant,
            question: match op.kind {
                OpKind::Ask(q) => Some(q),
                OpKind::Observe(_) => None,
            },
            op: Some(i),
            due_ns: op.due_ns,
            sent_ns,
            done_ns: u64::MAX,
            outcome: Outcome::Lost,
            lag_ns,
            encode_ns,
            decode_ns: 0,
        })
        .collect();
    join(&mut records, settled);
    Ok(Window {
        records,
        seconds,
        threads,
        connections: conns.len(),
    })
}

fn join(records: &mut [Record], settled: Vec<Settled>) {
    for s in settled {
        if let Some(r) = records.get_mut(s.id) {
            if r.outcome == Outcome::Lost {
                r.done_ns = s.done_ns;
                r.outcome = s.outcome;
                r.decode_ns = s.decode_ns;
            }
        }
    }
}

/// Runs the closed loop: every connection keeps `inflight` asks
/// outstanding for `seconds`, then drains for up to `drain`. Latency counts
/// from each actual send.
///
/// # Errors
///
/// Socket failures, described.
pub fn run_closed(
    conns: &mut [Conn],
    questions: &[Vec<WordId>],
    inflight: usize,
    seconds: f64,
    drain: Duration,
    seed: u64,
) -> Result<Window, String> {
    let fds = fds(conns);
    let n_conns = conns.len();
    let base = Instant::now();
    let end = base + Duration::from_secs_f64(seconds);
    let before = host::own_threads();
    let (records, threads) = std::thread::scope(|s| {
        let receiver = s.spawn(|| -> Result<Vec<Record>, String> {
            let mut rngs: Vec<Rng> = (0..n_conns)
                .map(|c| Rng::new(seed ^ (c as u64 + 0xC105ED)))
                .collect();
            let mut records: Vec<Record> = Vec::new();
            let mut outstanding = 0usize;
            let mut send = |c: usize,
                            conns: &mut [Conn],
                            records: &mut Vec<Record>,
                            freed_ns: Option<u64>|
             -> Result<(), String> {
                let q = rngs[c].below(questions.len());
                let frame = NetFrame::AskTokens {
                    id: records.len() as u64,
                    tokens: questions[q].clone(),
                };
                let t0 = Instant::now();
                let bytes = frame.encode();
                let encode_ns = t0.elapsed().as_nanos() as u64;
                let sent_ns = base.elapsed().as_nanos() as u64;
                (&conns[c].stream)
                    .write_all(&bytes)
                    .map_err(|e| format!("send: {e}"))?;
                records.push(Record {
                    tenant: c,
                    question: Some(q),
                    op: None,
                    due_ns: sent_ns,
                    sent_ns,
                    done_ns: u64::MAX,
                    outcome: Outcome::Lost,
                    lag_ns: freed_ns.map_or(0, |f| sent_ns.saturating_sub(f)),
                    encode_ns,
                    decode_ns: 0,
                });
                Ok(())
            };
            for c in 0..n_conns {
                for _ in 0..inflight {
                    send(c, conns, &mut records, None)?;
                    outstanding += 1;
                }
            }
            let stop = end + drain;
            while outstanding > 0 && Instant::now() < stop {
                let ready = host::poll_readable(&fds, 5).map_err(|e| format!("poll: {e}"))?;
                for (c, r) in ready.into_iter().enumerate() {
                    if !r {
                        continue;
                    }
                    conns[c].fill()?;
                    while let Some((frame, dec)) = conns[c].take()? {
                        let Some(st) = settle(frame, base, dec) else {
                            continue;
                        };
                        let Some(r) = records.get_mut(st.id) else {
                            continue;
                        };
                        if r.outcome != Outcome::Lost {
                            continue;
                        }
                        r.done_ns = st.done_ns;
                        r.outcome = st.outcome;
                        r.decode_ns = st.decode_ns;
                        outstanding -= 1;
                        if Instant::now() < end {
                            send(c, conns, &mut records, Some(st.done_ns))?;
                            outstanding += 1;
                        }
                    }
                }
            }
            Ok(records)
        });
        // The calling thread plus every thread started since `before`.
        let threads = 1 + host::own_threads().saturating_sub(before);
        receiver
            .join()
            .expect("closed-loop receiver panicked")
            .map(|r| (r, threads))
    })?;
    Ok(Window {
        records,
        seconds,
        threads,
        connections: n_conns,
    })
}

/// Sends `ops` one at a time (each waits for its response), timing each
/// from its send. Used for the post-window observe probe and the ingest
/// answer check.
///
/// # Errors
///
/// Socket failures, described.
pub fn run_sequential(
    conns: &mut [Conn],
    ops: &[(usize, OpKind)],
    questions: &[Vec<WordId>],
) -> Result<Vec<Record>, String> {
    let base = Instant::now();
    let mut records = Vec::with_capacity(ops.len());
    for (i, (tenant, kind)) in ops.iter().enumerate() {
        let frame = op_frame(i as u64, kind, questions);
        let t0 = Instant::now();
        let bytes = frame.encode();
        let encode_ns = t0.elapsed().as_nanos() as u64;
        let sent_ns = base.elapsed().as_nanos() as u64;
        let conn = &mut conns[*tenant];
        (&conn.stream)
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))?;
        let mut record = Record {
            tenant: *tenant,
            question: match kind {
                OpKind::Ask(q) => Some(*q),
                OpKind::Observe(_) => None,
            },
            op: None,
            due_ns: sent_ns,
            sent_ns,
            done_ns: u64::MAX,
            outcome: Outcome::Lost,
            lag_ns: 0,
            encode_ns,
            decode_ns: 0,
        };
        let (frame, dec) = loop {
            if let Some(got) = conn.take()? {
                break got;
            }
            conn.fill()?;
        };
        if let Some(st) = settle(frame, base, dec) {
            record.done_ns = st.done_ns;
            record.outcome = st.outcome;
            record.decode_ns = st.decode_ns;
        }
        records.push(record);
    }
    Ok(records)
}
