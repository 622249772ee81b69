//! `service_mixed`: a non-durable conversion service on the Figure 4.4
//! company context, one worker, a 50/50 read/mutate mix, in two phases
//! after an untimed warm-up:
//!
//! - **saturated**: batches of jobs queued at once, the service's
//!   throughput as the median batch rate;
//! - **open loop**: jobs sent on a fixed schedule at [`OPEN_RATE`], each
//!   timed from when it was *due*, so a stall is charged to the jobs
//!   behind it — the service's latency.
//!
//! This is where the admission queue, the S/X lock table (taken by every
//! job, never contended with one worker), and the replica pools do most of
//! the work; paged storage and the journal are off its path. Outcomes are checked against `ServiceBuilder::run_serial` after
//! the timed phases.

use std::time::{Duration, Instant};

use dbpc_convert::service::{JobOutcome, ServiceConfig, Session, Ticket};
use dbpc_convert::service::{SERVICE_BACKPRESSURE_WAITS, SERVICE_QUEUE_DEPTH_MAX};
use dbpc_convert::service::{SERVICE_TRUTH_HITS, SERVICE_TRUTH_MISSES};
use dbpc_storage::locks::{LOCKS_EXCLUSIVE, LOCKS_TIMEOUTS, LOCKS_WAITS, LOCKS_WAIT_NS};

use super::service_common::{builder, failed, jobs, Job};
use crate::report::Rep;
use crate::stats::{due_latency_ns, Ratio};
use crate::trace::span;

/// Service worker threads. One: with two on a two-core virtual machine
/// the saturated rate fell by up to half whenever the host took a core
/// away for a while, though each job ran as fast as ever.
pub const WORKERS: usize = 1;
/// Jobs run before timing, so the ground-truth memo and the replica pools
/// are warm, as in a service that has been up for a while.
pub const WARMUP_JOBS: usize = 6_000;
/// Timed saturated batches; the reported throughput is their median rate.
pub const BATCHES: usize = 5;
/// Jobs in one saturated batch.
pub const BATCH_JOBS: usize = 2_000;
/// Admission-queue bound: a whole batch fits, so `submit` never blocks and
/// only the worker runs while a batch drains, instead of a submitter woken
/// once per job beside it.
pub const QUEUE_CAPACITY: usize = BATCH_JOBS;
/// Open-loop send rate, jobs per second: about half the saturated rate.
pub const OPEN_RATE: f64 = 6_000.0;
/// Jobs in the open-loop phase (one second at [`OPEN_RATE`]).
pub const OPEN_JOBS: usize = 6_000;
/// Percent of jobs that mutate the database.
pub const WRITE_PCT: u64 = 50;

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        ..ServiceConfig::default()
    }
}

/// Queue `batch` at once and wait until it has drained. The last ticket is
/// waited on first, so the waiting thread wakes about once per batch.
fn run_batch(session: &Session, batch: &[Job], first_seq: usize) -> Vec<JobOutcome> {
    let mut tickets: Vec<(usize, Ticket)> = batch
        .iter()
        .enumerate()
        .filter_map(|(i, j)| {
            let seq = first_seq + i;
            span("service.submit", seq as u64, || {
                session.submit(0, j.program.clone(), j.key)
            })
            .ok()
            .map(|t| (seq, t))
        })
        .collect();
    let last = tickets.pop();
    let last = last.map(|(seq, t)| span("service.wait", seq as u64, || t.wait()));
    let mut outcomes: Vec<JobOutcome> = tickets
        .into_iter()
        .map(|(seq, t)| span("service.wait", seq as u64, || t.wait()))
        .collect();
    outcomes.extend(last);
    outcomes
}

/// Sleep until `due`, waking early and spinning the last stretch: plain
/// sleeps overshoot by tens of microseconds, which would read as
/// generator lag at this rate.
fn pace(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

pub fn run(seed: u64, rep: &mut Rep) {
    let all = jobs(
        seed,
        WARMUP_JOBS + BATCHES * BATCH_JOBS + OPEN_JOBS,
        WRITE_PCT,
    );
    let (warmup, rest) = all.split_at(WARMUP_JOBS);
    let (saturated, open) = rest.split_at(BATCHES * BATCH_JOBS);
    let svc = builder(config()).start();
    let session = svc.session();
    // The warm-up is set-up, so it stays out of the trace.
    let traced = crate::trace::enabled();
    crate::trace::enable(false);
    let warm = run_batch(&session, warmup, 0);
    crate::trace::enable(traced);
    crate::ready();

    let t_work = Instant::now();
    let (batch_rates, batched, open_obs) = span("rep", seed, || {
        // ---- Saturated phase -------------------------------------------
        let mut rates = Vec::with_capacity(BATCHES);
        let mut batched = warm;
        span("phase.saturated", 0, || {
            for (b, batch) in saturated.chunks(BATCH_JOBS).enumerate() {
                let t = Instant::now();
                let done = run_batch(&session, batch, WARMUP_JOBS + b * BATCH_JOBS);
                rates.push(done.len() as f64 / t.elapsed().as_secs_f64());
                batched.extend(done);
            }
        });
        let open_first = WARMUP_JOBS + saturated.len();

        // ---- Open-loop phase -------------------------------------------
        let open_obs = span("phase.open_loop", 1, || {
            let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
            let t0 = Instant::now();
            let mut sent = Vec::with_capacity(open.len());
            for (i, j) in open.iter().enumerate() {
                let seq = (open_first + i) as u64;
                let due = t0 + interval * i as u32;
                span("bench.pace", seq, || pace(due));
                let sent_at = Instant::now();
                let ticket = span("service.submit", seq, || {
                    session.submit(0, j.program.clone(), j.key)
                });
                sent.push((due - t0, sent_at - t0, j.write, ticket));
            }
            sent.into_iter()
                .enumerate()
                .filter_map(|(i, (due, sent_at, write, ticket))| {
                    let seq = (open_first + i) as u64;
                    let o = span("service.wait", seq, || ticket.ok().map(|t| t.wait()))?;
                    Some((due, sent_at, write, o))
                })
                .collect::<Vec<_>>()
        });
        (rates, batched, open_obs)
    });
    rep.work_s = t_work.elapsed().as_secs_f64();
    rep.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    let report = svc.shutdown();

    // ---- Failure accounting and the serial-equivalence check ------------
    let outcomes: Vec<&JobOutcome> = batched
        .iter()
        .chain(open_obs.iter().map(|(_, _, _, o)| o))
        .collect();
    rep.attempted = all.len() as u64;
    let refused = all.len() - outcomes.len();
    rep.failed = (refused + outcomes.iter().filter(|o| failed(o)).count()) as u64;
    let serial_jobs: Vec<_> = all.iter().map(|j| (0, j.program.clone(), j.key)).collect();
    // A failed job's report records its failure, so only the others can
    // match the serial run; the failed ones are counted above.
    match builder(config()).run_serial(&serial_jobs) {
        Ok(serial) => {
            let differs = outcomes.iter().filter(|o| !failed(o)).find(|o| {
                let s = &serial[o.seq as usize];
                (&s.report, &s.level) != (&o.report, &o.level)
            });
            if let Some(o) = differs {
                rep.fail_check(format!("job {} differs from the serial run", o.seq));
            }
        }
        Err(e) => rep.fail_check(format!("serial reference failed: {e}")),
    }

    // ---- End-to-end ----------------------------------------------------
    let ms = 1e-6;
    let mut lat = (Vec::new(), Vec::new());
    let mut exec = (Vec::new(), Vec::new());
    let mut queue = Vec::new();
    let mut lag = Vec::new();
    for &(due, sent_at, write, ref o) in &open_obs {
        let done = sent_at.as_nanos() as u64 + o.queue_ns + o.exec_ns;
        let l = due_latency_ns(due.as_nanos() as u64, done) as f64;
        let side = |p: &mut (Vec<f64>, Vec<f64>), v| if write { p.1.push(v) } else { p.0.push(v) };
        side(&mut lat, l);
        side(&mut exec, o.exec_ns as f64);
        queue.push(o.queue_ns as f64);
        lag.push(sent_at.saturating_sub(due).as_nanos() as f64);
    }
    let rates = crate::stats::sorted(batch_rates);
    let jobs_per_s = crate::stats::median(&rates).map_or(0.0, |p| p.value);
    rep.put("throughput_per_s", jobs_per_s, "1/s");
    // The gated latency is the median service time of an open-loop job.
    // Its due-time latency (read/write p50 and p99 below) adds the wake-up
    // of an idle worker, which on a virtual machine moved the median by up
    // to twofold from run to run; it is reported, not gated.
    let service = crate::stats::sorted(exec.0.iter().chain(&exec.1).copied().collect());
    rep.put(
        "latency_ms",
        crate::stats::median(&service).map_or(0.0, |p| p.value * ms),
        "ms",
    );
    rep.put("jobs_per_s", jobs_per_s, "1/s");
    rep.put(
        "failed_frac",
        rep.failed as f64 / rep.attempted as f64,
        "ratio",
    );
    rep.percentiles(("read_", "_ms"), lat.0, ms, "ms");
    rep.percentiles(("write_", "_ms"), lat.1, ms, "ms");

    // ---- Per layer -----------------------------------------------------
    rep.percentiles(("service.queue_wait_ms.", ""), queue, ms, "ms");
    rep.percentiles(("service.exec_ms.read.", ""), exec.0, ms, "ms");
    rep.percentiles(("service.exec_ms.write.", ""), exec.1, ms, "ms");
    rep.percentiles(("bench.generator_lag_ms.", ""), lag, ms, "ms");
    let m = &report.metrics;
    rep.count("storage.locks.waits", m.counter(LOCKS_WAITS));
    rep.put(
        "storage.locks.wait_ms",
        m.time_ns(LOCKS_WAIT_NS) as f64 * ms,
        "ms",
    );
    rep.count("storage.locks.timeouts", m.counter(LOCKS_TIMEOUTS));
    rep.count("storage.locks.exclusive", m.counter(LOCKS_EXCLUSIVE));
    rep.count(
        "service.backpressure_waits",
        m.counter(SERVICE_BACKPRESSURE_WAITS),
    );
    rep.count(
        "service.queue_depth_max",
        m.counter(SERVICE_QUEUE_DEPTH_MAX),
    );
    let hits = m.counter(SERVICE_TRUTH_HITS);
    let misses = m.counter(SERVICE_TRUTH_MISSES);
    rep.ratio(
        "convert.truth_memo_hit_ratio",
        Ratio::new(hits, hits + misses),
    );
    rep.count(
        "service.jobs_write",
        all.iter().filter(|j| j.write).count() as u64,
    );
}
