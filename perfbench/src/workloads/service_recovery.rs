//! `service_recovery`: a durable conversion service (`durable_root`; the
//! job journal fsyncs every admission) on the 80/20 read/mutate mix. Half
//! the jobs run to completion; the other half are admitted and fsynced
//! but never run — staged through the journal's public API, as
//! `benches/service_recovery.rs` stages them — and the service is then
//! reopened and drained.
//!
//! This is the workload where the journal, the WAL, fsync, and durable
//! context recovery set the time; the in-memory service path is the same
//! as `service_mixed`'s. The check: the recovered run's deterministic
//! report equals an uninterrupted run's, and recovery replays exactly the
//! lost half.

use std::path::Path;
use std::time::Instant;

use dbpc_convert::journal::JobJournal;
use dbpc_convert::service::{JobOutcome, ServiceConfig, SERVICE_JOBS};
use dbpc_storage::TempDir;

use super::service_common::{builder, failed, jobs, Job};
use crate::report::{os_io, Rep};
use crate::trace::span;

/// Service worker threads (the machine's two cores).
pub const WORKERS: usize = 2;
/// Jobs per repetition: the first half completes, the second is lost.
pub const JOBS: usize = 2_000;
/// Percent of jobs that mutate the database.
pub const WRITE_PCT: u64 = 20;

/// The durable service's configuration, rooted at `root`.
fn durable(root: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        durable_root: Some(root.to_path_buf()),
        ..ServiceConfig::default()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.file_type()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

pub fn run(seed: u64, rep: &mut Rep) {
    let all: Vec<Job> = jobs(seed, JOBS, WRITE_PCT);
    let (done, lost) = all.split_at(JOBS / 2);
    let crash = TempDir::new("perfbench-crash").expect("scratch directory");
    let journal_dir = crash.path().join("journal");
    let t = Instant::now();
    let b = builder(durable(crash.path()));
    let register_cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let svc = b.start();
    crate::ready();

    // ---- Phase 1: durable jobs run to completion ------------------------
    let session = svc.session();
    let io0 = os_io();
    let wal0 = dir_bytes(&journal_dir);
    let mut submit_ns = Vec::with_capacity(done.len());
    let t_work = Instant::now();
    let (outcomes, durable_s) = span("rep", seed, || {
        let t = Instant::now();
        let tickets: Vec<_> = done
            .iter()
            .enumerate()
            .map(|(i, j)| {
                span("service.submit", i as u64, || {
                    let t = Instant::now();
                    let ticket = session.submit(0, j.program.clone(), j.key);
                    submit_ns.push(t.elapsed().as_nanos() as f64);
                    ticket
                })
            })
            .collect();
        let outcomes: Vec<JobOutcome> = tickets
            .into_iter()
            .enumerate()
            .filter_map(|(i, t)| t.ok().map(|t| span("service.wait", i as u64, || t.wait())))
            .collect();
        (outcomes, t.elapsed().as_secs_f64())
    });
    let work1_s = t_work.elapsed().as_secs_f64();
    let io1 = os_io();
    let wal1 = dir_bytes(&journal_dir);
    svc.shutdown();

    // ---- The crash: the lost half is admitted and fsynced, never run ----
    let staged = JobJournal::open(&journal_dir, None, None).map(|(mut journal, scan)| {
        for (i, j) in lost.iter().enumerate() {
            journal.admit(scan.next_seq + i as u64, 0, 0, j.key, &j.program);
        }
        journal.errors()
    });
    rep.check(matches!(staged, Ok(0)), || {
        "staging the lost admissions failed".into()
    });
    // The journal scan a restart pays, timed on a copy of the crashed one.
    let copy = crash.path().join("journal-copy");
    let journal_open_ms = copy_dir(&journal_dir, &copy).ok().map(|()| {
        let t = Instant::now();
        let opened = JobJournal::open(&copy, None, None);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(opened);
        ms
    });

    // ---- Phase 2: timed recovery — reopen, replay, drain ----------------
    let t_rec = Instant::now();
    let (recovery, recovered, phases) = span("rep", seed, || {
        let t = Instant::now();
        let b = span("service.register_context", 1, || {
            builder(durable(crash.path()))
        });
        let register_warm_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let svc = span("service.start", 1, || b.start());
        let start_ms = t.elapsed().as_secs_f64() * 1e3;
        let recovery = svc.recovery();
        let t = Instant::now();
        let recovered = span("service.drain", 1, || svc.shutdown());
        let drain_ms = t.elapsed().as_secs_f64() * 1e3;
        (recovery, recovered, [register_warm_ms, start_ms, drain_ms])
    });
    let recovery_s = t_rec.elapsed().as_secs_f64();
    rep.work_s = work1_s + recovery_s;
    rep.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");

    // ---- The uninterrupted reference run --------------------------------
    let clean_dir = TempDir::new("perfbench-clean").expect("scratch directory");
    let t = Instant::now();
    let svc = builder(durable(clean_dir.path())).start();
    let session = svc.session();
    let tickets: Vec<_> = all
        .iter()
        .filter_map(|j| session.submit(0, j.program.clone(), j.key).ok())
        .collect();
    let clean_outcomes: Vec<JobOutcome> = tickets.into_iter().map(|t| t.wait()).collect();
    let clean = svc.shutdown();
    let rerun_s = t.elapsed().as_secs_f64();

    // ---- Failure accounting and the correctness check --------------------
    rep.attempted = JOBS as u64;
    let refused = done.len() - outcomes.len();
    rep.failed = (refused + outcomes.iter().filter(|o| failed(o)).count()) as u64;
    rep.check(recovery.admitted == JOBS as u64, || {
        format!("recovery saw {} admissions of {JOBS}", recovery.admitted)
    });
    rep.check(recovery.replayed == lost.len() as u64, || {
        format!(
            "recovery replayed {} jobs, {} were lost",
            recovery.replayed,
            lost.len()
        )
    });
    rep.check(
        recovered.metrics.counter(SERVICE_JOBS) == JOBS as u64,
        || "the recovered report does not account every job".into(),
    );
    rep.check(clean_outcomes.len() == JOBS, || {
        "the reference run refused jobs".into()
    });
    rep.check(recovered.deterministic() == clean.deterministic(), || {
        "the recovered report differs from the uninterrupted run's".into()
    });

    // ---- End-to-end ----------------------------------------------------
    // The gated rate is the replay rate: the durable submit rate below is
    // one fsync per job, and this host's fsync tail swings it twofold
    // from run to run.
    let durable_jobs_per_s = outcomes.len() as f64 / durable_s;
    rep.put(
        "throughput_per_s",
        recovery.replayed as f64 / recovery_s,
        "1/s",
    );
    rep.put("latency_ms", recovery_s * 1e3, "ms");
    rep.put("durable_jobs_per_s", durable_jobs_per_s, "1/s");
    rep.put("recovery_s", recovery_s, "s");
    rep.put(
        "failed_frac",
        rep.failed as f64 / rep.attempted as f64,
        "ratio",
    );
    // E21's recovery/rerun ratio, recorded as measured (its gate is ≤ 0.8).
    rep.put("recovery_vs_rerun_ratio", recovery_s / rerun_s, "ratio");

    // ---- Per layer -----------------------------------------------------
    let per_job = |v: u64| v as f64 / done.len() as f64;
    rep.percentiles(("service.submit_us.", ""), submit_ns, 1e-3, "us");
    rep.put(
        "storage.wal.bytes_per_job",
        per_job(wal1.saturating_sub(wal0)),
        "B",
    );
    rep.put(
        "storage.os.write_bytes_per_job",
        per_job(io1.0 - io0.0),
        "B",
    );
    rep.put(
        "storage.os.write_calls_per_job",
        per_job(io1.1 - io0.1),
        "count",
    );
    rep.put("service.register_context_ms.cold", register_cold_ms, "ms");
    rep.put("service.register_context_ms.warm", phases[0], "ms");
    rep.put(
        "convert.journal.open_ms",
        journal_open_ms.unwrap_or(0.0),
        "ms",
    );
    rep.put("service.start_ms", phases[1], "ms");
    rep.put("service.drain_ms", phases[2], "ms");
    rep.count("service.jobs_replayed", recovery.replayed);
}
