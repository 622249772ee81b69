//! Experiment E2: the automatic-conversion success-rate study.
//!
//! ```sh
//! cargo run -p dbpc-bench --bin success_rate --release [samples] [seed]
//! ```
//!
//! Prints the transform-class × outcome matrix, the per-program-class
//! breakdown, and the overall automatic rate — the number to compare with
//! the paper's §2.1.1 report that 1970s computer-aided converters reached
//! "a 65-70 percent success rate (sometimes higher)".

use dbpc_analyzer::cache::{CACHE_HITS, CACHE_MISSES};
use dbpc_corpus::gen::ProgramClass;
use dbpc_corpus::harness::{
    success_rate_study, CELLS_DONE, CONVERT_NS, DB_BUILDS, DB_CLONES, GENERATE_NS, HOST_THREADS,
    PROGRAMS_GENERATED, VERIFY_NS,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let samples: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1979);

    let study = success_rate_study(samples, seed);
    println!("== E2: success-rate study ({samples} samples per cell, seed {seed}) ==\n");
    println!("{study}");

    let m = &study.report.metrics;
    let ms = |name| m.time_ns(name) as f64 / 1e6;
    println!(
        "pipeline: {} thread(s) (DBPC_THREADS to override), {} cells, {} programs",
        m.gauge(HOST_THREADS),
        m.counter(CELLS_DONE),
        m.counter(PROGRAMS_GENERATED)
    );
    println!(
        "          analysis cache {} hits / {} misses; {} db builds + {} clones; \
         gen {:.1}ms conv {:.1}ms verify {:.1}ms",
        m.counter(CACHE_HITS),
        m.counter(CACHE_MISSES),
        m.counter(DB_BUILDS),
        m.counter(DB_CLONES),
        ms(GENERATE_NS),
        ms(CONVERT_NS),
        ms(VERIFY_NS)
    );
    println!();

    println!("per program class (aggregated over transforms):");
    println!(
        "{:<18} {:>6} {:>6} {:>7} {:>8}",
        "program class", "auto", "warn", "reject", "auto%"
    );
    for (i, pc) in ProgramClass::ALL.iter().enumerate() {
        let mut auto_ok = 0usize;
        let mut warn = 0usize;
        let mut reject = 0usize;
        let mut total = 0usize;
        for row in &study.rows {
            let (_, cell) = &row.cells[i];
            auto_ok += cell.converted;
            warn += cell.converted_with_warnings;
            reject += cell.rejected + cell.needs_manual;
            total += cell.total;
        }
        println!(
            "{:<18} {:>6} {:>6} {:>7} {:>7.1}%",
            pc.name(),
            auto_ok,
            warn,
            reject,
            100.0 * (auto_ok + warn) as f64 / total as f64
        );
    }
    assert_eq!(
        study.total_verified_wrong(),
        0,
        "a conversion claimed success but ran non-equivalently"
    );
    println!("\nevery successful conversion was verified by execution (0 divergences).");
}
