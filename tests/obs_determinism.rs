//! Determinism of the observability layer itself.
//!
//! The obs contract extends the repo's parallelism contract one level up:
//! not only must the E2 matrix be byte-identical at any thread count, the
//! *deterministic projection* of the run's `RunReport` — span forest with
//! wall clocks stripped, metrics with `Racy`/`Time`/`host.*` entries
//! dropped — must be byte-identical too. Per-cell captures are renumbered
//! in cell-index order and metric shards merge in the same order, so the
//! report is a pure function of the work list, not of scheduling.
//!
//! Also pinned here: the PR-2 regression where the analysis cache's
//! hit/miss tallies lived in per-thread `Cell`s and were silently dropped
//! for every pool worker but the assembling thread. Since the counters
//! migrated into the ambient obs sheet (bracketed per cell, shipped back
//! with the result, merged in index order), every worker's lookups are
//! accounted for: hits + misses == lookups at any thread count.

use dbpc::analyzer::cache::{CACHE_HITS, CACHE_LOOKUPS, CACHE_MISSES};
use dbpc::corpus::harness::{success_rate_study_config, StudyConfig, StudyResult};
use dbpc::obs::RunReport;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn study_at(threads: usize, permissive: bool) -> StudyResult {
    success_rate_study_config(&StudyConfig {
        threads,
        permissive,
        ..StudyConfig::new(2, 1979)
    })
}

#[test]
fn e2_run_report_is_deterministic_across_thread_counts() {
    let runs: Vec<StudyResult> = THREAD_COUNTS
        .iter()
        .map(|&threads| study_at(threads, false))
        .collect();
    let reference = runs[0].report.deterministic();
    assert!(
        reference.node_count() > 0,
        "study produced an empty span forest"
    );
    for (threads, run) in THREAD_COUNTS.iter().zip(&runs).skip(1) {
        let projected = run.report.deterministic();
        assert_eq!(
            reference, projected,
            "deterministic report differs at {threads} threads"
        );
        assert_eq!(
            reference.to_json(),
            projected.to_json(),
            "deterministic report JSON differs at {threads} threads"
        );
    }
}

#[test]
fn permissive_run_report_is_deterministic_across_thread_counts() {
    let runs: Vec<StudyResult> = THREAD_COUNTS
        .iter()
        .map(|&threads| study_at(threads, true))
        .collect();
    let reference = runs[0].report.deterministic();
    for run in &runs[1..] {
        assert_eq!(reference, run.report.deterministic());
        assert_eq!(reference.to_json(), run.report.deterministic().to_json());
    }
}

#[test]
fn run_report_json_round_trips() {
    let run = study_at(2, false);
    let text = run.report.to_json();
    let back = RunReport::from_json(&text).expect("exported report must parse");
    assert_eq!(back, run.report);
    assert_eq!(back.to_json(), text, "re-serialization must be byte-stable");
    dbpc::obs::report::validate_json(&text).expect("exported report must validate");
}

#[test]
fn every_span_is_well_formed_and_stage_spans_present() {
    let run = study_at(2, false);
    for root in &run.report.spans {
        assert!(
            root.well_formed(),
            "malformed span tree under {}",
            root.name
        );
    }
    // The Figure 4.1 stage boundaries all appear in a real study run.
    let mut names = std::collections::BTreeSet::new();
    run.report.walk(&mut |node| {
        names.insert(node.name.clone());
    });
    for expected in [
        "convert.program",
        "stage.analyzer",
        "stage.converter",
        "stage.optimizer",
        "stage.generator",
        "engine.host",
    ] {
        assert!(names.contains(expected), "missing span {expected:?}");
    }
}

/// The PR-2 cache-merge regression: every pool worker's analysis-cache
/// lookups are merged into the study frame, so the hit/miss split accounts
/// for every lookup even at 8 threads. (Hits and misses are individually
/// interleaving-dependent — `Racy` — but their sum is not.)
#[test]
fn analysis_cache_hits_and_misses_account_for_every_lookup() {
    for &threads in &THREAD_COUNTS {
        let run = study_at(threads, false);
        let frame = &run.report.metrics;
        let lookups = frame.counter(CACHE_LOOKUPS);
        assert!(lookups > 0, "study at {threads} threads did no lookups");
        assert_eq!(
            frame.counter(CACHE_HITS) + frame.counter(CACHE_MISSES),
            lookups,
            "cache hit/miss split lost lookups at {threads} threads"
        );
    }
}
