//! Cross-request batched throughput on the tiled GEMM fast path, on one
//! thread and split across every core. Emits the machine-readable
//! `BENCH_batch.json`; with `--check` the process exits nonzero when the
//! run fails the conservative sanity gate (finite measurements, batched
//! not slower than sequential at the largest batch).
use mnn_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let report = mnn_bench::batch_report::run(scale);
    print!("{}", report.table());
    match report.write_json("BENCH_batch.json") {
        Ok(()) => println!("wrote BENCH_batch.json"),
        Err(e) => eprintln!("{e}"),
    }
    if std::env::args().any(|a| a == "--check") && !report.sane() {
        eprintln!("batched throughput run failed its sanity gate");
        std::process::exit(1);
    }
}
