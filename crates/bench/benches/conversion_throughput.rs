//! Experiment E14: conversion-pipeline throughput.
//!
//! Times the E2 success-rate matrix and the E9 cost model under the
//! pre-optimization pipeline (sequential, database rebuilt per program, no
//! analysis memoization) against the tuned pipeline (per-cell database
//! reuse, memoized analysis, batch conversion) at 1, 2 and 4 worker
//! threads, plus the clone-heavy vs. borrowed data-translation inner loop.
//! Every configuration must render the **byte-identical** study matrix —
//! the speedups are pure pipeline efficiency, asserted here alongside the
//! work counters (schema clones per translation, analysis cache hits,
//! database builds vs. clones) that explain them.
//!
//! Thread-scaling configurations engage real parallelism only where the
//! host has cores to offer; `host_parallelism` is recorded in the emitted
//! `BENCH_conversion_throughput.json` so readers can interpret the
//! per-thread numbers.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): one tiny iteration of everything,
//! all invariant assertions active, no artifact written — the CI guard.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use dbpc_analyzer::cache::{CACHE_HITS, CACHE_MISSES};
use dbpc_corpus::harness::{
    cost_model, success_rate_study_config, CostParams, StudyConfig, CELLS_DONE, CONVERT_NS,
    DB_BUILDS, DB_CLONES, DB_SHARED_RUNS, EQUIVALENCE_RUNS, GENERATE_NS, GENERATION_CACHE_HITS,
    HOST_THREADS, PROGRAMS_GENERATED, SOURCE_TRACE_HITS, SOURCE_TRACE_MISSES, VERIFY_NS,
};
use dbpc_corpus::named::company_db;
use dbpc_obs::{local_snapshot, MetricsFrame};
use dbpc_restructure::data::translate;
use dbpc_restructure::stats::{RECORDS_STORED, RECORD_TYPE_PREPS, SCHEMA_CLONES};
use dbpc_restructure::Transform;
use dbpc_storage::{NetworkDb, RecordId, SYSTEM_OWNER};

/// Best-of-N wall clock. On a shared, single-core host, scheduler
/// interference only ever *adds* time, so the minimum is the stable
/// estimator of a configuration's actual cost — medians of block-wise runs
/// drift with whatever else the machine was doing during that block.
fn best_ns<F: FnMut()>(iters: u32, mut f: F) -> u128 {
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .min()
        .unwrap()
}

/// The pre-optimization data-translation inner loop, reconstructed against
/// the public storage API: per *record* it re-clones the record-type
/// definition and materializes owned `(String, Value)` pairs (plus a second
/// value clone for the `&str` view `store` wants). The tuned loop in
/// `dbpc_restructure::data` hoists all of that to one plan per record
/// *type*; this baseline is what the clone-audit speedup is measured
/// against.
fn cloning_rebuild(db: &NetworkDb) -> NetworkDb {
    let mut out = NetworkDb::new(db.schema().clone()).unwrap();
    let mut idmap: BTreeMap<RecordId, RecordId> = BTreeMap::new();
    // Schema order is owners-first for the company schema.
    let types: Vec<String> = db.schema().records.iter().map(|r| r.name.clone()).collect();
    for rtype in &types {
        for old_id in db.records_of_type(rtype) {
            let rt = db.schema().record(rtype).unwrap().clone();
            let old_rec = db.get(old_id).unwrap();
            let values: Vec<(String, dbpc_datamodel::value::Value)> = rt
                .fields
                .iter()
                .enumerate()
                .filter(|(_, f)| !f.is_virtual())
                .map(|(i, f)| (f.name.clone(), old_rec.values[i].clone()))
                .collect();
            let mut connects: Vec<(String, RecordId)> = Vec::new();
            for s in db.schema().sets_with_member(rtype) {
                if s.is_system() {
                    continue;
                }
                if let Some(owner) = db.owner_in(&s.name, old_id).unwrap() {
                    if owner != SYSTEM_OWNER {
                        connects.push((s.name.clone(), idmap[&owner]));
                    }
                }
            }
            let vref: Vec<(&str, dbpc_datamodel::value::Value)> = values
                .iter()
                .map(|(f, v)| (f.as_str(), v.clone()))
                .collect();
            let cref: Vec<(&str, RecordId)> =
                connects.iter().map(|(s, o)| (s.as_str(), *o)).collect();
            let new_id = out.store(rtype, &vref, &cref).unwrap();
            idmap.insert(old_id, new_id);
        }
    }
    out
}

struct MatrixRun {
    label: &'static str,
    best_ns: u128,
    /// The study's merged metrics frame.
    m: MetricsFrame,
}

fn main() {
    let smoke = std::env::var("DBPC_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (samples, iters) = if smoke { (1, 1) } else { (3, 5) };
    let seed = 1979u64;
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    // ---- E2 matrix: seed pipeline vs. tuned pipeline at 1/2/4 threads -----
    let configs: [(&'static str, StudyConfig); 4] = [
        ("seed_pipeline", StudyConfig::baseline(samples, seed)),
        (
            "tuned_1_thread",
            StudyConfig {
                threads: 1,
                ..StudyConfig::new(samples, seed)
            },
        ),
        (
            "tuned_2_threads",
            StudyConfig {
                threads: 2,
                ..StudyConfig::new(samples, seed)
            },
        ),
        (
            "tuned_4_threads",
            StudyConfig {
                threads: 4,
                ..StudyConfig::new(samples, seed)
            },
        ),
    ];

    let reference = success_rate_study_config(&configs[0].1);
    let rendered = reference.to_string();
    let mut runs: Vec<MatrixRun> = Vec::new();
    for (label, config) in &configs {
        let study = success_rate_study_config(config);
        assert_eq!(
            study.to_string(),
            rendered,
            "{label}: study matrix must be byte-identical to the seed pipeline's"
        );
        runs.push(MatrixRun {
            label,
            best_ns: u128::MAX,
            m: study.report.metrics,
        });
    }
    // Interleave one timed run of every configuration per round, keeping
    // each configuration's best: a slow system phase then degrades the
    // whole round instead of biasing whichever configuration it landed on.
    for _ in 0..iters {
        for (run, (_, config)) in runs.iter_mut().zip(&configs) {
            let t = Instant::now();
            let s = success_rate_study_config(config);
            let ns = t.elapsed().as_nanos();
            assert_eq!(s.rows, reference.rows);
            run.best_ns = run.best_ns.min(ns);
        }
    }
    let seed_ns = runs[0].best_ns;

    // The tuned pipeline memoizes analysis and generation and swaps
    // per-program database rebuilds for shared-base runs (update-free
    // programs) or clones (updating ones); the seed pipeline does none of
    // that.
    let (seed_m, tuned_m) = (&runs[0].m, &runs[1].m);
    assert_eq!(seed_m.counter(CACHE_HITS), 0);
    assert_eq!(seed_m.counter(GENERATION_CACHE_HITS), 0);
    assert!(tuned_m.counter(CACHE_HITS) > 0);
    assert!(tuned_m.counter(GENERATION_CACHE_HITS) > 0);
    assert_eq!(seed_m.counter(DB_CLONES), 0);
    assert_eq!(seed_m.counter(DB_SHARED_RUNS), 0);
    assert_eq!(
        tuned_m.counter(DB_CLONES) + tuned_m.counter(DB_SHARED_RUNS),
        tuned_m.counter(EQUIVALENCE_RUNS) + tuned_m.counter(SOURCE_TRACE_MISSES)
    );
    assert!(tuned_m.counter(DB_SHARED_RUNS) > 0);
    // Base databases are built once per cell instead of once per program;
    // at one sample per cell the two coincide, so smoke mode only checks
    // the tuned pipeline never builds *more*.
    if samples > 1 {
        assert!(tuned_m.counter(DB_BUILDS) < seed_m.counter(DB_BUILDS));
    } else {
        assert!(tuned_m.counter(DB_BUILDS) <= seed_m.counter(DB_BUILDS));
    }
    assert!(tuned_m.counter(SOURCE_TRACE_HITS) > 0);

    // ---- E9 cost model under both pipelines -------------------------------
    let interactive_base = StudyConfig {
        permissive: true,
        ..StudyConfig::baseline(samples, seed)
    };
    let interactive_tuned = StudyConfig {
        permissive: true,
        threads: 4,
        ..StudyConfig::new(samples, seed)
    };
    let report_base = cost_model(
        &success_rate_study_config(&interactive_base),
        CostParams::default(),
    );
    let report_tuned = cost_model(
        &success_rate_study_config(&interactive_tuned),
        CostParams::default(),
    );
    assert_eq!(
        report_base.to_string(),
        report_tuned.to_string(),
        "cost report must not depend on the pipeline configuration"
    );
    let (mut cost_base_ns, mut cost_tuned_ns) = (u128::MAX, u128::MAX);
    for _ in 0..iters {
        for (slot, config) in [
            (&mut cost_base_ns, &interactive_base),
            (&mut cost_tuned_ns, &interactive_tuned),
        ] {
            let t = Instant::now();
            cost_model(&success_rate_study_config(config), CostParams::default());
            *slot = (*slot).min(t.elapsed().as_nanos());
        }
    }

    // ---- Translation clone audit ------------------------------------------
    let rename = Transform::RenameRecord {
        old: "DIV".into(),
        new: "DIVISION".into(),
    };
    let (small_db, large_db) = (company_db(2, 3, 8), company_db(8, 3, 32));
    let mut audits = Vec::new();
    for db in [&small_db, &large_db] {
        let records = db.records_of_type("DIV").len() + db.records_of_type("EMP").len();
        let before = local_snapshot();
        translate(db, &rename).unwrap();
        let work = local_snapshot().since(&before);
        assert_eq!(
            work.counter(SCHEMA_CLONES),
            1,
            "one schema clone per translation, independent of N = {records}"
        );
        assert_eq!(
            work.counter(RECORD_TYPE_PREPS),
            2,
            "one plan per record type (DIV, EMP), independent of N = {records}"
        );
        assert_eq!(work.counter(RECORDS_STORED) as usize, records);
        audits.push((records, work));
    }
    let cloning_ns = best_ns(iters, || {
        cloning_rebuild(&large_db);
    });
    let borrowed_ns = best_ns(iters, || {
        translate(&large_db, &rename).unwrap();
    });

    // ---- Database reuse: build-from-scratch vs. clone ---------------------
    let base = company_db(4, 3, 8);
    let build_ns = best_ns(iters, || {
        company_db(4, 3, 8);
    });
    let clone_ns = best_ns(iters, || {
        let _ = base.clone();
    });

    // ---- Emit artifact ----------------------------------------------------
    let speedup = |a: u128, b: u128| a as f64 / b.max(1) as f64;
    let mut json = String::new();
    let w = &mut json;
    writeln!(w, "{{").unwrap();
    writeln!(w, "  \"bench\": \"conversion_throughput\",").unwrap();
    writeln!(w, "  \"host_parallelism\": {host_parallelism},").unwrap();
    writeln!(w, "  \"smoke\": {smoke},").unwrap();
    writeln!(w, "  \"e2_matrix\": {{").unwrap();
    writeln!(w, "    \"samples_per_cell\": {samples},").unwrap();
    writeln!(w, "    \"seed\": {seed},").unwrap();
    writeln!(w, "    \"cells\": {},", seed_m.counter(CELLS_DONE)).unwrap();
    writeln!(
        w,
        "    \"programs\": {},",
        seed_m.counter(PROGRAMS_GENERATED)
    )
    .unwrap();
    writeln!(w, "    \"identical_output\": true,").unwrap();
    for run in &runs {
        writeln!(
            w,
            "    \"{}\": {{ \"threads\": {}, \"best_ns\": {}, \"speedup_vs_seed\": {:.2}, \
             \"analysis_cache_hits\": {}, \"analysis_cache_misses\": {}, \
             \"generation_cache_hits\": {}, \
             \"source_trace_hits\": {}, \"source_trace_misses\": {}, \
             \"db_builds\": {}, \"db_clones\": {}, \"db_shared_runs\": {} }},",
            run.label,
            run.m.gauge(HOST_THREADS),
            run.best_ns,
            speedup(seed_ns, run.best_ns),
            run.m.counter(CACHE_HITS),
            run.m.counter(CACHE_MISSES),
            run.m.counter(GENERATION_CACHE_HITS),
            run.m.counter(SOURCE_TRACE_HITS),
            run.m.counter(SOURCE_TRACE_MISSES),
            run.m.counter(DB_BUILDS),
            run.m.counter(DB_CLONES),
            run.m.counter(DB_SHARED_RUNS)
        )
        .unwrap();
    }
    writeln!(
        w,
        "    \"stage_ns_seed\": {{ \"generate\": {}, \"convert\": {}, \"verify\": {} }},",
        seed_m.time_ns(GENERATE_NS),
        seed_m.time_ns(CONVERT_NS),
        seed_m.time_ns(VERIFY_NS)
    )
    .unwrap();
    writeln!(
        w,
        "    \"stage_ns_tuned\": {{ \"generate\": {}, \"convert\": {}, \"verify\": {} }}",
        tuned_m.time_ns(GENERATE_NS),
        tuned_m.time_ns(CONVERT_NS),
        tuned_m.time_ns(VERIFY_NS)
    )
    .unwrap();
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"e9_cost_model\": {{").unwrap();
    writeln!(w, "    \"identical_output\": true,").unwrap();
    writeln!(w, "    \"seed_best_ns\": {cost_base_ns},").unwrap();
    writeln!(w, "    \"tuned_best_ns\": {cost_tuned_ns},").unwrap();
    writeln!(
        w,
        "    \"speedup\": {:.2}",
        speedup(cost_base_ns, cost_tuned_ns)
    )
    .unwrap();
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"translation_clone_audit\": {{").unwrap();
    writeln!(w, "    \"record_types\": 2,").unwrap();
    for (name, (records, work)) in ["small", "large"].iter().zip(&audits) {
        writeln!(
            w,
            "    \"{name}\": {{ \"records\": {records}, \"schema_clones\": {}, \
             \"record_type_preps\": {}, \"records_stored\": {} }},",
            work.counter(SCHEMA_CLONES),
            work.counter(RECORD_TYPE_PREPS),
            work.counter(RECORDS_STORED)
        )
        .unwrap();
    }
    writeln!(w, "    \"cloning_rebuild_best_ns\": {cloning_ns},").unwrap();
    writeln!(w, "    \"borrowed_translate_best_ns\": {borrowed_ns},").unwrap();
    writeln!(
        w,
        "    \"speedup\": {:.2}",
        speedup(cloning_ns, borrowed_ns)
    )
    .unwrap();
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"db_reuse\": {{").unwrap();
    writeln!(w, "    \"build_best_ns\": {build_ns},").unwrap();
    writeln!(w, "    \"clone_best_ns\": {clone_ns},").unwrap();
    writeln!(w, "    \"speedup\": {:.2}", speedup(build_ns, clone_ns)).unwrap();
    writeln!(w, "  }}").unwrap();
    writeln!(w, "}}").unwrap();

    println!("{json}");
    if smoke {
        println!("smoke mode: artifact not written");
    } else {
        let out = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_conversion_throughput.json"
        );
        std::fs::write(out, &json).unwrap();
        println!("wrote {out}");
    }
}
