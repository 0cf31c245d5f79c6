//! The three workloads and the inputs each draws from its seed.
//!
//! Every workload serves two tenants, one connection each, from a model
//! with `ed` 64 in the serving shape (position encoding, no temporal rows)
//! whose weights come from the seed. `SkipPolicy::None` (the daemon's
//! default) makes the work per question independent of the weights, so the
//! seed changes the inputs, never the amount of work.

use mnn_dataset::babi::{BabiGenerator, TaskKind};
use mnn_dataset::{Vocabulary, WordId};
use mnn_memnn::{MemNet, ModelConfig};
use mnn_serve::SessionConfig;
use mnnfast::Precision;

/// Tenants per workload; each gets exactly one connection.
pub const TENANTS: usize = 2;
/// Embedding dimension, as in `bench_batch` and `bench_serving`.
pub const ED: usize = 64;
/// The daemon's default coalescing occupancy (`--max-batch`), which the
/// in-process pool replay mirrors.
pub const DAEMON_MAX_BATCH: usize = 8;
/// The daemon's default coalescing max-wait (`--batch-wait-us`).
pub const DAEMON_BATCH_WAIT_US: u64 = 1000;

/// How a workload offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Independent users: sends follow a Poisson schedule regardless of
    /// answers; `observe_share` of the operations are observes.
    Open {
        /// Offered operations per second across both tenants.
        rate: f64,
        /// Share of operations that are observes (the rest are asks).
        observe_share: f64,
    },
    /// Callers that wait: each connection keeps `inflight` asks
    /// outstanding and sends the next one when an answer arrives.
    Closed {
        /// Asks in flight per connection.
        inflight: usize,
    },
}

/// One workload's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Sentences loaded into each tenant's memory during set-up.
    pub sentences: usize,
    /// The daemon's `--precision`.
    pub precision: Precision,
    /// The daemon's `--window` (`None` leaves the flag unset).
    pub window: Option<usize>,
    /// Offered load during the timed window.
    pub traffic: Traffic,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Sequential observes sent after the timed window when the window
    /// itself sends none, so every workload reports observe latency.
    pub probe_observes: usize,
}

/// Names of every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["interactive", "saturate", "ingest"];

impl Spec {
    /// The workload called `name`; `smoke` shrinks it to seconds for the
    /// benchmark's own tests.
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let pick = |full: usize, small: usize| if smoke { small } else { full };
        match name {
            // Per-question forward at 4096 rows is ~0.1 ms, far below the
            // flush wait and network hops: measures net and pool. 200 q/s
            // is far below capacity and gives the p99 enough samples.
            "interactive" => Some(Spec {
                name: "interactive",
                sentences: pick(4096, 512),
                precision: Precision::F32,
                window: None,
                traffic: Traffic::Open {
                    rate: 200.0,
                    observe_share: 0.0,
                },
                setups: pick(9, 2),
                probe_observes: pick(4000, 100),
            }),
            // 64 MiB of planes per tenant and queues always full: the
            // scheduler spends its time in the batched forward.
            "saturate" => Some(Spec {
                name: "saturate",
                sentences: pick(131_072, 2048),
                precision: Precision::F32,
                window: None,
                traffic: Traffic::Closed {
                    inflight: 2 * DAEMON_MAX_BATCH,
                },
                setups: pick(5, 2),
                probe_observes: pick(4000, 100),
            }),
            // A full int8 window: every observe embeds, evicts and
            // re-quantizes beside the asks reading the same memory. At
            // 16384 rows each eviction shifts 10 MiB, and observe latency
            // tracked the host's CPU steal (p50 1.5-2.4 ms across seeds,
            // spread 0.41); at 4096 rows the shift is 2.5 MiB and the
            // scheduler stays far from saturation.
            "ingest" => Some(Spec {
                name: "ingest",
                sentences: pick(4096, 1024),
                precision: Precision::Int8,
                window: Some(pick(4096, 1024)),
                traffic: Traffic::Open {
                    rate: pick(300, 200) as f64,
                    observe_share: 0.75,
                },
                setups: pick(5, 2),
                probe_observes: 0,
            }),
            _ => None,
        }
    }

    /// The `SessionConfig` the daemon builds from this workload's flags
    /// (everything else at its defaults).
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig {
            max_sentences: self.window,
            precision: self.precision,
            ..SessionConfig::default()
        }
    }

    /// The daemon's command-line value for `--precision`.
    pub fn precision_flag(&self) -> &'static str {
        match self.precision {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }

    /// Memory rows each tenant holds during the timed window.
    pub fn rows(&self) -> usize {
        self.window
            .map_or(self.sentences, |w| w.min(self.sentences))
    }
}

/// What one open-loop operation does.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Ask question `questions[i]`.
    Ask(usize),
    /// Write this sentence into the tenant's memory.
    Observe(Vec<WordId>),
}

/// One scheduled open-loop operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// When it is due, in nanoseconds from the window's start.
    pub due_ns: u64,
    /// Target tenant (and connection).
    pub tenant: usize,
    /// Ask or observe.
    pub kind: OpKind,
}

/// Everything a run sends, drawn from the seed before any clock starts.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The served model.
    pub model: MemNet,
    /// Its vocabulary (written beside the model as the `.vocab` sidecar).
    pub vocab: Vocabulary,
    /// Set-up sentences per tenant.
    pub setup: Vec<Vec<Vec<WordId>>>,
    /// The distinct questions asks draw from.
    pub questions: Vec<Vec<WordId>>,
    /// The open-loop schedule (empty for closed loops).
    pub ops: Vec<Op>,
    /// Sentences for the post-window observe probe, with their tenants.
    pub probe: Vec<(usize, Vec<WordId>)>,
    /// Seed for choices made while running (closed-loop question picks).
    pub seed: u64,
}

/// SplitMix64: a small, fast, seedable generator for schedules and picks.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A tenant's endless story stream from its own seeded generator.
struct Stories {
    generator: BabiGenerator,
    pending: Vec<Vec<WordId>>,
}

impl Stories {
    fn new(seed: u64) -> Self {
        Stories {
            generator: BabiGenerator::new(TaskKind::SingleSupportingFact, seed),
            pending: Vec::new(),
        }
    }

    fn next(&mut self, questions: &mut Vec<Vec<WordId>>) -> Vec<WordId> {
        if self.pending.is_empty() {
            let story = self.generator.story(64, 2);
            for q in story.questions {
                if !questions.contains(&q.tokens) {
                    questions.push(q.tokens);
                }
            }
            self.pending = story.sentences;
            self.pending.reverse();
        }
        self.pending.pop().expect("stories are never empty")
    }
}

impl Inputs {
    /// Draws every input of `spec` for a window of `seconds` from `seed`.
    pub fn generate(spec: &Spec, seed: u64, seconds: f64) -> Inputs {
        let mut rng = Rng::new(seed ^ 0x5EED_BEAC);
        let mut questions = Vec::new();
        let mut streams: Vec<Stories> = (0..TENANTS)
            .map(|t| Stories::new(seed.wrapping_mul(31).wrapping_add(t as u64 + 1)))
            .collect();
        let vocab = streams[0].generator.vocab().clone();
        let config = ModelConfig {
            temporal: false,
            position_encoding: true,
            ..ModelConfig::for_generator(&streams[0].generator, ED, 8)
        };
        let model = MemNet::new(config, seed);
        let setup: Vec<Vec<Vec<WordId>>> = streams
            .iter_mut()
            .map(|s| {
                (0..spec.sentences)
                    .map(|_| s.next(&mut questions))
                    .collect()
            })
            .collect();

        // Open loops: a Poisson process conditioned on its count, i.e. the
        // arrival times are sorted uniforms over the window, with exactly
        // `rate * seconds` arrivals, an exact observe share, and an exact
        // tenant split, so the seed moves timing and content, not volume.
        let mut ops = Vec::new();
        if let Traffic::Open {
            rate,
            observe_share,
        } = spec.traffic
        {
            let n = (rate * seconds).round().max(1.0) as usize;
            let window_ns = seconds * 1e9;
            let mut due: Vec<u64> = (0..n).map(|_| (rng.unit() * window_ns) as u64).collect();
            due.sort_unstable();
            let n_obs = (n as f64 * observe_share).round() as usize;
            let mut kinds: Vec<(bool, usize)> = (0..n).map(|i| (i < n_obs, i % TENANTS)).collect();
            for i in (1..n).rev() {
                kinds.swap(i, rng.below(i + 1));
            }
            for (due_ns, (observe, tenant)) in due.into_iter().zip(kinds) {
                let kind = if observe {
                    OpKind::Observe(streams[tenant].next(&mut questions))
                } else {
                    OpKind::Ask(usize::MAX)
                };
                ops.push(Op {
                    due_ns,
                    tenant,
                    kind,
                });
            }
        }
        let probe = (0..spec.probe_observes)
            .map(|i| {
                let t = i % TENANTS;
                (t, streams[t].next(&mut questions))
            })
            .collect();
        // Questions are picked after the pool is complete.
        for op in &mut ops {
            if let OpKind::Ask(q) = &mut op.kind {
                *q = rng.below(questions.len());
            }
        }
        Inputs {
            model,
            vocab,
            setup,
            questions,
            ops,
            probe,
            seed,
        }
    }

    /// Writes the model and its `.vocab` sidecar to `path`.
    ///
    /// # Errors
    ///
    /// Serialization or file-system failures, described.
    pub fn write_model(&self, path: &std::path::Path) -> Result<(), String> {
        let bytes = self.model.to_bytes().map_err(|e| e.to_string())?;
        std::fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let mut words = String::new();
        for (_, w) in self.vocab.iter() {
            words.push_str(w);
            words.push('\n');
        }
        let sidecar = format!("{}.vocab", path.display());
        std::fs::write(&sidecar, words).map_err(|e| format!("writing {sidecar}: {e}"))
    }
}
