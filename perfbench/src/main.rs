//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a description of the host and the run, one `name value unit`
//! line per metric, and as its last line the JSON result. Exits 1 when an
//! answer was wrong and 2 when the run could not be completed or was
//! invalid (no result line then).

fn main() {
    // The daemon child never sees `MNNFAST_*`; neither may the in-process
    // reference sessions, or the two would serve different configurations.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("MNNFAST_") {
            std::env::remove_var(k);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = mnn_perfbench::Options::parse(&args).and_then(|o| mnn_perfbench::run(&o));
    match report {
        Ok(report) => {
            for line in &report.notes {
                println!("# {line}");
            }
            for m in &report.metrics {
                println!(
                    "{:<28} {:>16} {}",
                    m.name,
                    mnn_perfbench::stats::json_number(m.value),
                    m.unit
                );
            }
            println!("{}", report.json_line());
            if !report.correct() {
                eprintln!("perfbench: {} wrong answers", report.tally.wrong);
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
