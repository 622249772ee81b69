//! `paged_scale`: E22 shrunk to 200k records. A seeded company corpus is
//! streamed into a paged `NetworkDb` whose buffer pool ([`POOL_FRAMES`] ×
//! [`PAGE`] bytes) is about 3% of the heap file it produces, translated
//! through the Figure 4.4 restructuring (the target is paged too), and
//! then probed with uniform-random `NetworkDb::get` lookups.
//!
//! The data outgrows the program's cache, so `HeapFile::place`,
//! `BufferMgr::pin`, eviction, and the O(records) RAM indexes set the
//! time; the service's queue, locks, and journal are off its path. The
//! check: a small corpus from the same generator lands on identical
//! source and target fingerprints in memory and paged, and every lookup
//! returns the record that was stored under its id.

use std::time::Instant;

use dbpc_corpus::named;
use dbpc_datamodel::value::Value;
use dbpc_obs::MetricsFrame;
use dbpc_storage::disk::buffer::{BUFFER_EVICTIONS, BUFFER_FLUSHES, BUFFER_HITS, BUFFER_PINS};
use dbpc_storage::disk::file::{DISK_READS, DISK_WRITES};
use dbpc_storage::{NetworkDb, RecordId};

use crate::report::Rep;
use crate::stats::{Ratio, SplitMix};
use crate::trace::span;

pub const DIVISIONS: usize = 200;
pub const EMPS_PER_DIV: usize = 999;
pub const RECORDS: usize = DIVISIONS * (1 + EMPS_PER_DIV);
pub const PAGE: usize = 4096;
pub const POOL_FRAMES: usize = 96;
pub const LOOKUPS: usize = 200_000;

const DEPTS: [&str; 8] = [
    "SALES", "MFG", "ENG", "ADMIN", "RSRCH", "LEGAL", "SHIP", "QA",
];

/// One record to store: its type, field values, and (for an employee)
/// the index of its division among the stored records.
struct Row {
    rtype: &'static str,
    values: Vec<(&'static str, Value)>,
    owner: Option<usize>,
}

/// The seeded company corpus: each division followed by its employees.
fn corpus(seed: u64, divisions: usize, emps_per_div: usize) -> Vec<Row> {
    let mut rng = SplitMix::new(seed);
    let mut rows = Vec::with_capacity(divisions * (1 + emps_per_div));
    let mut emp_no = 0usize;
    for d in 0..divisions {
        let div_at = rows.len();
        rows.push(Row {
            rtype: "DIV",
            values: vec![
                ("DIV-NAME", Value::str(format!("DIV-{d:05}"))),
                ("DIV-LOC", Value::str(format!("CITY-{:02}", rng.below(37)))),
            ],
            owner: None,
        });
        let first_dept = rng.below(DEPTS.len() as u64) as usize;
        for _ in 0..emps_per_div {
            let dept = DEPTS[(first_dept + rng.below(3) as usize) % DEPTS.len()];
            rows.push(Row {
                rtype: "EMP",
                values: vec![
                    ("EMP-NAME", Value::str(format!("EMP-{emp_no:06}"))),
                    ("DEPT-NAME", Value::str(dept)),
                    ("AGE", Value::Int(20 + rng.below(45) as i64)),
                ],
                owner: Some(div_at),
            });
            emp_no += 1;
        }
    }
    rows
}

/// Store `rows` into `db`, returning each row's id (`None` where the
/// store failed) and timing each store when `timed`.
fn store_all(
    db: &mut NetworkDb,
    rows: &[Row],
    mut times: Option<&mut Vec<f64>>,
) -> Vec<Option<RecordId>> {
    let mut ids: Vec<Option<RecordId>> = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let owner = row.owner.and_then(|o| ids[o]);
        let connects: &[(&str, RecordId)] = match &owner {
            Some(div) => &[("DIV-EMP", *div)][..],
            None => &[],
        };
        let id = span("storage.store", i as u64, || {
            let t = Instant::now();
            let id = db.store(row.rtype, &row.values, connects);
            if let Some(times) = times.as_deref_mut() {
                times.push(t.elapsed().as_nanos() as f64);
            }
            id
        });
        ids.push(id.ok());
    }
    ids
}

/// Physical page traffic of one phase, from the storage layer's counters.
fn page_traffic(rep: &mut Rep, phase: &str, d: &MetricsFrame) {
    let pins = d.counter(BUFFER_PINS);
    rep.count(format!("storage.buffer.{phase}.pins"), pins);
    rep.ratio(
        &format!("storage.buffer.{phase}.hit_ratio"),
        Ratio::new(d.counter(BUFFER_HITS), pins),
    );
    rep.count(
        format!("storage.buffer.{phase}.evictions"),
        d.counter(BUFFER_EVICTIONS),
    );
    rep.count(
        format!("storage.buffer.{phase}.flushes"),
        d.counter(BUFFER_FLUSHES),
    );
    rep.count(format!("storage.disk.{phase}.reads"), d.counter(DISK_READS));
    rep.count(
        format!("storage.disk.{phase}.writes"),
        d.counter(DISK_WRITES),
    );
}

pub fn run(seed: u64, rep: &mut Rep) {
    let rows = corpus(seed, DIVISIONS, EMPS_PER_DIV);
    let transform = named::fig_4_4_restructuring();
    let mut rng = SplitMix::new(seed ^ 0x5CA1E);
    let probes: Vec<usize> = (0..LOOKUPS)
        .map(|_| rng.below(RECORDS as u64) as usize)
        .collect();
    let mut src = NetworkDb::new_paged(named::company_schema(), PAGE, POOL_FRAMES)
        .expect("a paged database opens in the scratch directory");
    crate::ready();

    let traced = crate::trace::enabled();
    let mut store_ns = Vec::new();
    let mut get_ns = Vec::with_capacity(LOOKUPS);
    let snap = dbpc_obs::local_snapshot;
    let s0 = snap();
    let t_work = Instant::now();
    let (ids, build_s, s1, tgt, translate_s, s2, got, lookup_s) = span("rep", seed, || {
        // ---- Build -----------------------------------------------------
        let t = Instant::now();
        let ids = store_all(&mut src, &rows, traced.then_some(&mut store_ns));
        let build_s = t.elapsed().as_secs_f64();
        let s1 = snap();

        // ---- Translate -------------------------------------------------
        let t = Instant::now();
        let tgt = span("restructure.translate", 0, || transform.translate(&src));
        let translate_s = t.elapsed().as_secs_f64();
        let s2 = snap();

        // ---- Lookups ---------------------------------------------------
        let t = Instant::now();
        let got: Vec<_> = probes
            .iter()
            .map(|&i| {
                let id = ids[i]?;
                let rec = span("storage.get", id.0, || {
                    let t = Instant::now();
                    let rec = src.get(id);
                    get_ns.push(t.elapsed().as_nanos() as f64);
                    rec
                });
                rec.ok()
            })
            .collect();
        (
            ids,
            build_s,
            s1,
            tgt,
            translate_s,
            s2,
            got,
            t.elapsed().as_secs_f64(),
        )
    });
    rep.work_s = t_work.elapsed().as_secs_f64();
    rep.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    let s3 = snap();

    // ---- Failure accounting and the correctness check --------------------
    let store_failed = ids.iter().filter(|id| id.is_none()).count();
    let get_failed = got.iter().filter(|r| r.is_none()).count();
    rep.attempted = (RECORDS + LOOKUPS + 1) as u64;
    rep.failed = (store_failed + get_failed + usize::from(tgt.is_err())) as u64;
    let wrong = probes
        .iter()
        .zip(&got)
        .filter(|(&i, rec)| match rec {
            Some(rec) => !rec.values.contains(&rows[i].values[0].1),
            None => false,
        })
        .count();
    rep.check(wrong == 0, || {
        format!("{wrong} lookups returned the wrong record")
    });
    rep.check(src.record_count() == RECORDS - store_failed, || {
        format!("source holds {} records", src.record_count())
    });
    match &tgt {
        Ok(tgt) => rep.check(tgt.is_paged(), || "translated target left the heap".into()),
        Err(e) => rep.fail_check(format!("translation failed: {e}")),
    }
    check_paged_matches_memory(seed, rep);

    // ---- End-to-end ----------------------------------------------------
    let records = RECORDS as f64;
    rep.put("throughput_per_s", records / (build_s + translate_s), "1/s");
    let sorted = crate::stats::sorted(get_ns.clone());
    rep.put(
        "latency_ms",
        crate::stats::median(&sorted).map_or(0.0, |p| p.value * 1e-6),
        "ms",
    );
    rep.put("build_records_per_s", records / build_s, "1/s");
    rep.put("translate_records_per_s", records / translate_s, "1/s");
    rep.put("lookups_per_s", LOOKUPS as f64 / lookup_s, "1/s");
    rep.put(
        "failed_frac",
        rep.failed as f64 / rep.attempted as f64,
        "ratio",
    );

    // ---- Per layer -----------------------------------------------------
    if traced {
        rep.percentiles(("storage.store_us.", ""), store_ns, 1e-3, "us");
    }
    rep.percentiles(("storage.get_us.", ""), get_ns, 1e-3, "us");
    rep.put("restructure.translate_ms", translate_s * 1e3, "ms");
    page_traffic(rep, "build", &s1.since(&s0));
    page_traffic(rep, "translate", &s2.since(&s1));
    page_traffic(rep, "lookup", &s3.since(&s2));
    if let Some(h) = src.heap_stats() {
        rep.count("storage.heap.pages", h.pages);
        rep.put("storage.heap.fill_pct", h.fill_pct as f64, "%");
        rep.put(
            "storage.heap.bytes_per_record",
            (h.pages * PAGE as u64) as f64 / h.records.max(1) as f64,
            "B",
        );
        rep.put(
            "storage.pool_pct_of_heap",
            100.0 * (POOL_FRAMES * PAGE) as f64 / (h.pages * PAGE as u64).max(1) as f64,
            "%",
        );
    }
}

/// The same generator at an overlapping corpus size, through both
/// backends (the paged one under a four-frame pool, so it evicts): source
/// and translated target fingerprints must agree exactly.
fn check_paged_matches_memory(seed: u64, rep: &mut Rep) {
    let rows = corpus(seed, 6, 40);
    let transform = named::fig_4_4_restructuring();
    let mut mem = NetworkDb::new(named::company_schema()).expect("schema is valid");
    let mut paged = NetworkDb::new_paged(named::company_schema(), 512, 4).expect("paged opens");
    let a = store_all(&mut mem, &rows, None);
    let b = store_all(&mut paged, &rows, None);
    rep.check(a.iter().chain(&b).all(Option::is_some), || {
        "small corpus store failed".into()
    });
    rep.check(mem.fingerprint() == paged.fingerprint(), || {
        "paged source fingerprint differs from in-memory".into()
    });
    match (transform.translate(&mem), transform.translate(&paged)) {
        (Ok(m), Ok(p)) => rep.check(m.fingerprint() == p.fingerprint(), || {
            "paged target fingerprint differs from in-memory".into()
        }),
        _ => rep.fail_check("small corpus translation failed"),
    }
}
