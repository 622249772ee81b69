//! `convert_study`: the E2 success-rate study at a fixed sample count,
//! seeded from the argument, in memory. Every one of the 96 transform ×
//! program-class cells goes through analyze → convert → optimize →
//! generate → verify; the study's wall time is the north-star "E2 study
//! wall time". Paged storage, replica pools, locks, and the journal are
//! not on its path.

use std::time::Instant;

use dbpc_corpus::harness::{self, StudyConfig};

use crate::report::Rep;
use crate::stats::Ratio;
use crate::trace::span;

/// Programs generated per (transform, program-class) cell.
pub const SAMPLES: usize = 500;
/// Pipeline worker threads. One: with two on a two-core virtual machine
/// the study's wall time moved with how well the two kept pace, on top of
/// the host's own drift.
pub const THREADS: usize = 1;

pub fn run(seed: u64, rep: &mut Rep) {
    let config = StudyConfig {
        threads: THREADS,
        ..StudyConfig::new(SAMPLES, seed)
    };
    crate::ready();

    let t = Instant::now();
    let study = span("rep", seed, || {
        span("corpus.study", seed, || {
            harness::success_rate_study_config(&config)
        })
    });
    let wall = t.elapsed().as_secs_f64();
    rep.work_s = wall;
    rep.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");

    // ---- Failure accounting and the correctness check ------------------
    let cells: Vec<_> = study.rows.iter().map(|r| r.aggregate()).collect();
    let programs: u64 = cells.iter().map(|c| c.total as u64).sum();
    let poisoned: u64 = cells.iter().map(|c| c.poisoned as u64).sum();
    rep.attempted = programs;
    rep.failed = poisoned;
    let wrong = study.total_verified_wrong();
    rep.check(wrong == 0, || {
        format!("{wrong} conversions diverged on execution")
    });
    rep.check(programs as usize == 96 * SAMPLES, || {
        format!(
            "study covered {programs} programs, expected {}",
            96 * SAMPLES
        )
    });

    // ---- End-to-end ----------------------------------------------------
    rep.put("throughput_per_s", programs as f64 / wall, "1/s");
    rep.put("latency_ms", wall * 1e3, "ms");
    rep.put("programs_per_s", programs as f64 / wall, "1/s");
    rep.put(
        "failed_frac",
        poisoned as f64 / programs.max(1) as f64,
        "ratio",
    );

    // ---- Per layer: the program's own counters and stage timers --------
    // Stage timers are summed over the pipeline's worker threads.
    let m = &study.report.metrics;
    let ms = |name: &str| m.time_ns(name) as f64 / 1e6;
    rep.put("corpus.generate_ms", ms(harness::GENERATE_NS), "ms");
    rep.put("convert.supervisor_ms", ms(harness::CONVERT_NS), "ms");
    rep.put("convert.verify_ms", ms(harness::VERIFY_NS), "ms");
    let hits = m.counter(dbpc_analyzer::cache::CACHE_HITS);
    let misses = m.counter(dbpc_analyzer::cache::CACHE_MISSES);
    rep.ratio("analyzer.cache_hit_ratio", Ratio::new(hits, hits + misses));
    let hits = m.counter(harness::SOURCE_TRACE_HITS);
    let misses = m.counter(harness::SOURCE_TRACE_MISSES);
    rep.ratio(
        "convert.truth_memo_hit_ratio",
        Ratio::new(hits, hits + misses),
    );
    rep.count("engine.planner.probes", m.counter("planner.probe_chosen"));
    rep.count("engine.planner.scans", m.counter("planner.scan_chosen"));
    // The study converts by plain rewriting (its shipped default), so a
    // program is served by full rewriting or left to a person.
    let rewritten: u64 = cells
        .iter()
        .map(|c| (c.converted + c.converted_with_warnings) as u64)
        .sum();
    let manual: u64 = cells
        .iter()
        .map(|c| (c.needs_manual + c.rejected) as u64)
        .sum();
    rep.count("convert.rung.full-rewrite", rewritten);
    rep.count("convert.rung.emulation", 0);
    rep.count("convert.rung.bridge", 0);
    rep.count("convert.rung.manual", manual);
}
