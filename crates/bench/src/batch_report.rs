//! Cross-request batched throughput: questions/sec of the batched GEMM
//! fast path against answering the same questions sequentially.
//!
//! The batched engine answers `nq` concurrent questions in one streaming
//! pass — every chunk of `M_IN`/`M_OUT` is touched once per *batch*
//! (a register-tiled GEMM) instead of once per question (`nq` GEMVs), so
//! memory traffic stays flat while arithmetic per loaded byte grows with
//! `nq`. This report measures that effect on the paper-shaped column path
//! and emits `BENCH_batch.json`. Each repetition times the sequential and
//! batched flavor back-to-back and the speedup is the median per-rep
//! ratio, so shared-machine throughput swings hit both flavors alike
//! (the same pairing discipline as `BENCH_robustness.json`). Each entry
//! also records the bytes and FLOPs per question and the best batched
//! pass's achieved GB/s and GFLOP/s, so the curve's distance from the
//! memory roofline is a number.
//!
//! A second dimension splits the batched pass across every core the host
//! offers (a pinned [`EngineKind::Parallel`] plan) and times it in the
//! same repetition as the one-thread batched pass; its speedup is the
//! median of those paired ratios.

use crate::table::{f, ExperimentTable};
use crate::Scale;
use mnn_tensor::Matrix;
use mnnfast::{Budget, EngineKind, ExecPlan, Executor, MnnFastConfig, Scratch, Trace};
use std::hint::black_box;
use std::time::Instant;

/// Batch sizes measured, smallest first.
pub const BATCH_SIZES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Required speedup over the sequential baseline at `nq >= 8` for a
/// full-scale run (the acceptance bound recorded in `BENCH_batch.json`).
pub const SPEEDUP_TARGET_AT_8: f64 = 2.0;

/// One batch-size measurement.
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// Questions per batch.
    pub nq: usize,
    /// Best observed seconds to answer all `nq` questions sequentially.
    pub sequential_seconds: f64,
    /// Best observed seconds to answer all `nq` questions in one batched
    /// pass.
    pub batched_seconds: f64,
    /// Questions per second, sequential baseline (from the best rep).
    pub sequential_qps: f64,
    /// Questions per second, batched fast path (from the best rep).
    pub batched_qps: f64,
    /// Median of the per-repetition sequential/batched time ratios.
    pub speedup: f64,
    /// Best observed seconds for the batched pass split across
    /// [`BatchReport::threads`] threads.
    pub threaded_seconds: f64,
    /// Questions per second of the split batched pass (from the best rep).
    pub threaded_qps: f64,
    /// Median of the per-repetition one-thread/split batched time ratios.
    pub threaded_speedup: f64,
    /// Memory bytes the batched pass streams per question: both planes
    /// once per batch, shared by its `nq` questions.
    pub bytes_per_q: f64,
    /// Floating-point operations per question, as the engine counts them.
    pub flops_per_q: u64,
    /// Achieved memory bandwidth of the best batched pass, GB/s.
    pub batched_gbps: f64,
    /// Achieved arithmetic rate of the best batched pass, GFLOP/s.
    pub batched_gflops: f64,
}

/// A full batched-throughput run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Memory rows.
    pub ns: usize,
    /// Embedding dimension.
    pub ed: usize,
    /// Rows per chunk.
    pub chunk: usize,
    /// Threads the split batched pass runs on (the host's available
    /// parallelism).
    pub threads: usize,
    /// Acceptance target for entries with `nq >= 8`.
    pub target_speedup: f64,
    /// One entry per batch size, in [`BATCH_SIZES`] order.
    pub entries: Vec<BatchEntry>,
}

/// Runs the batched-vs-sequential measurement on the paper-shaped column
/// path (chunk 1000, ed 64).
pub fn run(scale: Scale) -> BatchReport {
    let ed = 64;
    let chunk = 1000;
    let ns = scale.pick(200_000, 20_000);
    let reps = scale.pick(9, 5);

    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 31 + c * 7) as f32 * 0.001).sin() * 0.3);
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 5) as f32 * 0.002).cos() * 0.3);

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let exec = ExecPlan::new(MnnFastConfig::new(chunk))
        .with_kind(EngineKind::Column)
        .executor();
    let split = ExecPlan::new(MnnFastConfig::new(chunk).with_threads(threads))
        .with_kind(EngineKind::Parallel)
        .executor();
    let mut scratch = Scratch::new();
    let mut trace = Trace::disabled();

    let mut entries = Vec::with_capacity(BATCH_SIZES.len());
    for nq in BATCH_SIZES {
        let questions: Vec<Vec<f32>> = (0..nq)
            .map(|q| {
                (0..ed)
                    .map(|i| ((q * ed + i) as f32 * 0.013 + 0.4).sin())
                    .collect()
            })
            .collect();
        let budgets = vec![Budget::unlimited(); nq];

        let sequential_pass = |scratch: &mut Scratch, trace: &mut Trace| {
            let t0 = Instant::now();
            for u in &questions {
                let out = exec
                    .forward_prefix_budgeted(
                        &m_in,
                        &m_out,
                        ns,
                        black_box(u),
                        scratch,
                        trace,
                        &budgets[0],
                    )
                    .expect("sequential pass");
                scratch.recycle(black_box(out).o);
            }
            t0.elapsed().as_secs_f64()
        };
        // Returns the pass time and question 0's flop count.
        let batched_pass = |exec: &dyn Executor, scratch: &mut Scratch, trace: &mut Trace| {
            let t0 = Instant::now();
            let results = exec
                .forward_batch_budgeted(
                    &m_in,
                    &m_out,
                    ns,
                    black_box(&questions),
                    scratch,
                    trace,
                    &budgets,
                )
                .expect("batched pass");
            let elapsed = t0.elapsed().as_secs_f64();
            let mut flops = 0;
            for (q, r) in results.into_iter().enumerate() {
                let out = r.expect("fault-free question");
                if q == 0 {
                    flops = out.stats.flops;
                }
                scratch.recycle(out.o);
            }
            (elapsed, flops)
        };

        // Warm both flavors: grows the scratch arena (including the batch
        // tile) so timed passes are allocation-free.
        sequential_pass(&mut scratch, &mut trace);
        let (_, flops_per_q) = batched_pass(&exec, &mut scratch, &mut trace);
        batched_pass(&split, &mut scratch, &mut trace);

        let (mut best_seq, mut best_batch, mut best_split) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut ratios = Vec::with_capacity(reps);
        let mut split_ratios = Vec::with_capacity(reps);
        for _ in 0..reps {
            let s = sequential_pass(&mut scratch, &mut trace);
            let (b, _) = batched_pass(&exec, &mut scratch, &mut trace);
            let (t, _) = batched_pass(&split, &mut scratch, &mut trace);
            best_seq = best_seq.min(s);
            best_batch = best_batch.min(b);
            best_split = best_split.min(t);
            ratios.push(s / b);
            split_ratios.push(b / t);
        }

        let bytes_per_q = (2 * ns * ed * 4) as f64 / nq as f64;
        let batched_qps = nq as f64 / best_batch;
        entries.push(BatchEntry {
            nq,
            sequential_seconds: best_seq,
            batched_seconds: best_batch,
            sequential_qps: nq as f64 / best_seq,
            batched_qps,
            speedup: median(&mut ratios),
            threaded_seconds: best_split,
            threaded_qps: nq as f64 / best_split,
            threaded_speedup: median(&mut split_ratios),
            bytes_per_q,
            flops_per_q,
            batched_gbps: bytes_per_q * batched_qps / 1e9,
            batched_gflops: flops_per_q as f64 * batched_qps / 1e9,
        });
    }

    BatchReport {
        ns,
        ed,
        chunk,
        threads,
        target_speedup: SPEEDUP_TARGET_AT_8,
        entries,
    }
}

/// Median of a non-empty sample (sorts in place).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

impl BatchReport {
    /// `true` when every entry with `nq >= 8` meets the full-scale speedup
    /// target. Only meaningful for [`Scale::Full`] runs: smoke shapes are
    /// too small to amortize per-pass overheads.
    pub fn meets_target(&self) -> bool {
        self.entries
            .iter()
            .filter(|e| e.nq >= 8)
            .all(|e| e.speedup >= self.target_speedup)
    }

    /// Sanity gate for CI smoke runs: every measurement is finite and
    /// positive, and at the largest batch size the batched path is at
    /// least not slower than sequential. Deliberately conservative — a
    /// loaded CI runner must not flake the job on a noisy ratio.
    pub fn sane(&self) -> bool {
        let all_finite = self.entries.iter().all(|e| {
            e.sequential_seconds > 0.0
                && e.batched_seconds > 0.0
                && e.threaded_seconds > 0.0
                && e.speedup.is_finite()
                && e.speedup > 0.0
                && e.threaded_speedup.is_finite()
                && e.threaded_speedup > 0.0
        });
        let last_not_slower = self.entries.last().is_some_and(|e| e.speedup >= 1.0);
        all_finite && last_not_slower
    }

    /// Human-readable companion table.
    pub fn table(&self) -> ExperimentTable {
        let mut t = ExperimentTable::new(
            "Batched serving: questions/sec on the tiled GEMM fast path",
            &[
                "nq",
                "seq q/s",
                "batched q/s",
                "speedup",
                "split q/s",
                "split speedup",
                "MB/q",
                "GB/s",
                "GFLOP/s",
            ],
        );
        for e in &self.entries {
            t.row(vec![
                e.nq.to_string(),
                f(e.sequential_qps),
                f(e.batched_qps),
                format!("{:.2}x", e.speedup),
                f(e.threaded_qps),
                format!("{:.2}x", e.threaded_speedup),
                format!("{:.2}", e.bytes_per_q / 1e6),
                format!("{:.2}", e.batched_gbps),
                format!("{:.2}", e.batched_gflops),
            ]);
        }
        t.note(format!(
            "ns={}, ed={}, chunk={}: each batched pass streams the memories once for all nq questions",
            self.ns, self.ed, self.chunk
        ));
        t.note(format!(
            "split: the batched pass on {} threads; speedup is the paired ratio to the one-thread batched pass",
            self.threads
        ));
        t.note(format!(
            "target at nq>=8: {:.1}x — {}",
            self.target_speedup,
            if self.meets_target() {
                "met"
            } else {
                "NOT met (expected for smoke shapes)"
            }
        ));
        t
    }

    /// Serializes the report as JSON (hand-rolled: the workspace builds
    /// offline with no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"ns\": {}, \"ed\": {}, \"chunk\": {}, \"threads\": {},\n",
            self.ns, self.ed, self.chunk, self.threads
        ));
        out.push_str(&format!(
            "  \"target_speedup\": {:.1}, \"meets_target\": {},\n",
            self.target_speedup,
            self.meets_target()
        ));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"nq\": {},\n", e.nq));
            out.push_str(&format!(
                "      \"sequential_seconds\": {:.12},\n",
                e.sequential_seconds
            ));
            out.push_str(&format!(
                "      \"batched_seconds\": {:.12},\n",
                e.batched_seconds
            ));
            out.push_str(&format!(
                "      \"sequential_qps\": {:.3},\n",
                e.sequential_qps
            ));
            out.push_str(&format!("      \"batched_qps\": {:.3},\n", e.batched_qps));
            out.push_str(&format!("      \"speedup\": {:.4},\n", e.speedup));
            out.push_str(&format!(
                "      \"threaded_seconds\": {:.12},\n",
                e.threaded_seconds
            ));
            out.push_str(&format!("      \"threaded_qps\": {:.3},\n", e.threaded_qps));
            out.push_str(&format!(
                "      \"threaded_speedup\": {:.4},\n",
                e.threaded_speedup
            ));
            out.push_str(&format!("      \"bytes_per_q\": {:.1},\n", e.bytes_per_q));
            out.push_str(&format!("      \"flops_per_q\": {},\n", e.flops_per_q));
            out.push_str(&format!("      \"batched_gbps\": {:.3},\n", e.batched_gbps));
            out.push_str(&format!(
                "      \"batched_gflops\": {:.3}\n",
                e.batched_gflops
            ));
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`BatchReport::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message on failure.
    pub fn write_json(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("writing {path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_every_batch_size() {
        let report = run(Scale::Smoke);
        let sizes: Vec<_> = report.entries.iter().map(|e| e.nq).collect();
        assert_eq!(sizes, BATCH_SIZES);
        for e in &report.entries {
            assert!(e.sequential_qps > 0.0, "nq={}", e.nq);
            assert!(e.batched_qps > 0.0, "nq={}", e.nq);
            assert!(e.speedup.is_finite() && e.speedup > 0.0, "nq={}", e.nq);
            assert!(e.threaded_qps > 0.0, "nq={}", e.nq);
            assert!(e.threaded_speedup.is_finite() && e.threaded_speedup > 0.0);
            // Traffic per question falls as 1/nq; work per question does not.
            let first = &report.entries[0];
            assert_eq!(e.bytes_per_q * e.nq as f64, first.bytes_per_q);
            assert_eq!(e.flops_per_q, first.flops_per_q);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(Scale::Smoke);
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"entries\"",
            "\"nq\": 32",
            "\"target_speedup\"",
            "\"meets_target\"",
            "\"speedup\"",
            "\"threads\"",
            "\"threaded_speedup\"",
            "\"bytes_per_q\"",
            "\"flops_per_q\"",
            "\"batched_gbps\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
