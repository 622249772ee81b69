//! Durable job journal for the conversion service.
//!
//! PR 7's service keeps admitted jobs in worker-queue RAM; PR 8's WAL
//! substrate persists engine state but not the *work list*. This module
//! closes that seam: every admitted job and every published result is
//! journaled through [`dbpc_storage::LogMgr`] so a service restarted over
//! the same durable root can replay exactly the jobs that were admitted
//! but not completed — and assemble a shutdown [`RunReport`] byte-identical
//! (in its deterministic projection) to the uninterrupted run.
//!
//! ## Record format
//!
//! The journal is one checksummed WAL (`jobs.wal`, `[len][fnv64][payload]`
//! framing from [`LogMgr`]); each payload is a tag byte plus
//! [`ByteWriter`]-encoded fields:
//!
//! | tag | record | fields |
//! |-----|--------|--------|
//! | 1 | `ADMIT` | seq, session, ctx, key, fnv64(text), program text |
//! | 2 | retired | JSON `DONE` of older journals: never written, fails to decode |
//! | 3 | `SHED`  | seq |
//! | 4 | `DONE`  | fnv64(body), body = seq + binary observability shard |
//!
//! The program rides as dialect text ([`print_program`], round-trip proven
//! by `tests/dialect_roundtrip.rs`) with its own fingerprint, so a replayed
//! job re-parses to the very program that was admitted. A `DONE` payload is
//! the job's *observability shard* — span capture plus metrics delta —
//! which is all the shutdown report assembly needs; the job outcome itself
//! is deliberately not persisted, because a replayed job recomputes it as a
//! pure function of `(context, program, key)` (the service's determinism
//! contract).
//!
//! The shard body is `ticks`, then the span forest in preorder — per node
//! a kind byte (0 span, 1 event), name, open, close, attr count and
//! key/value pairs, a `wall_ns` flag byte (0 none, 1 followed by the
//! value), child count — then the metric count and, in name order, each
//! metric's name, kind byte (0 counter, 1 racy, 2 gauge, 3 time, 4 hist)
//! and value (a hist is count, sum, min, max). Counts are `u32`, strings
//! are length-prefixed UTF-8. Decoding inverts encoding exactly and is
//! total: every count is checked against the bytes left before anything is
//! allocated, the body and the payload must be consumed exactly, and the
//! body fingerprint — like `ADMIT`'s text fingerprint — rejects any
//! corrupted byte even outside the WAL's own checksum. A record that fails
//! to decode, including a tag-2 `DONE` left by an older writer, is counted
//! in [`JournalScan::decode_errors`] and its job replays.
//!
//! ## Durability schedule
//!
//! `ADMIT` is append + fsync — admission is the contract the client can
//! rely on after a crash. `DONE`/`SHED` are append-only (staged into the
//! WAL tail, full pages written eagerly) and made durable by the next
//! [`JobJournal::finalize`] — shutdown, drop, or an explicit flush. A kill
//! between a result's append and the final flush loses at most the staged
//! tail of results, and the matching jobs simply replay — idempotent, and
//! cheaper than an fsync per completion (the `BENCH_durability` fsync
//! floor, documented in EXPERIMENTS.md §K).
//!
//! ## Failure semantics
//!
//! The journal *wedges* on the first surfaced disk error (torn write,
//! short write, failed fsync — injectable via [`DiskFaultPlan`]): every
//! later operation is a no-op and the error count is reported at shutdown.
//! A wedged journal never takes the service down — jobs still run and
//! tickets still resolve; the un-journaled suffix is indistinguishable
//! from never-admitted work after a restart, which the E21 driver treats
//! exactly like the unsubmitted tail (resubmission), preserving the
//! `admitted = completed ∪ replayed` invariant.
//!
//! [`RunReport`]: dbpc_obs::RunReport

use dbpc_datamodel::error::{ModelError, PipelineResult};
use dbpc_dml::host::{parse_program, print_program, Program};
use dbpc_obs::span::SpanKind;
use dbpc_obs::{Capture, Hist, MetricValue, MetricsFrame, SpanNode};
use dbpc_storage::disk::codec::{fail, fnv64, ByteReader, ByteWriter, CodecResult};
use dbpc_storage::disk::{DiskFaultPlan, FileMgr, LogMgr, DEFAULT_PAGE_SIZE};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

const TAG_ADMIT: u8 = 1;
/// The JSON `DONE` of older journals; never written, rejected on decode.
const TAG_DONE_JSON: u8 = 2;
const TAG_SHED: u8 = 3;
const TAG_DONE: u8 = 4;

/// Fewest bytes one encoded span node can take (kind, empty name, open,
/// close, attr count, `wall_ns` flag, child count) — the divisor that
/// bounds a decoded span count by the bytes left.
const MIN_SPAN_BYTES: usize = 1 + 4 + 8 + 8 + 4 + 1 + 4;
/// Fewest bytes one attr pair can take (two empty strings).
const MIN_ATTR_BYTES: usize = 4 + 4;
/// Fewest bytes one metric can take (empty name, kind, one scalar).
const MIN_METRIC_BYTES: usize = 4 + 1 + 8;
/// Deepest span nesting the decoder accepts, so a corrupt body cannot
/// recurse the stack away; traces nest a handful of levels.
const MAX_SPAN_DEPTH: usize = 256;

/// The WAL file name under the journal directory.
const JOURNAL_FILE: &str = "jobs.wal";

/// A journal boundary the crash matrix can kill at. `Staged` events fire
/// after the record is appended to the in-memory WAL tail (lost by a
/// kill); `Durable` events fire after the corresponding flush returned
/// (survives a kill). See `src/bin/service_crash.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalEvent {
    AdmitStaged,
    AdmitDurable,
    DoneStaged,
    ShedStaged,
    Finalized,
}

/// Test hook fired at every journal boundary with a process-wide monotone
/// boundary index. The E21 driver installs one that calls
/// `std::process::exit` at a chosen index; production configurations leave
/// it `None`.
#[derive(Clone)]
pub struct BoundaryHook(Arc<dyn Fn(JournalEvent, u64) + Send + Sync>);

impl BoundaryHook {
    pub fn new(f: impl Fn(JournalEvent, u64) + Send + Sync + 'static) -> BoundaryHook {
        BoundaryHook(Arc::new(f))
    }
}

impl fmt::Debug for BoundaryHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoundaryHook(..)")
    }
}

/// One admitted-but-incomplete job recovered from the journal: the
/// service re-enqueues it (original seq and session preserved, so its
/// capture label — and therefore the assembled span forest — matches the
/// uninterrupted run byte for byte).
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    pub seq: u64,
    pub session: u64,
    pub ctx: usize,
    pub key: u64,
    pub program: Program,
}

/// Everything a recovery scan found, partitioned for the service.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// Admitted, neither completed nor shed — the replay set, seq order.
    pub pending: Vec<RecoveredJob>,
    /// Completed jobs' observability shards, seq order.
    pub results: Vec<(u64, Capture, MetricsFrame)>,
    /// Seqs that were shed (admission policy or bounded drain).
    pub shed: Vec<u64>,
    /// Intact `ADMIT` records found.
    pub admitted: u64,
    /// One past the highest journaled seq — the restarted service's next
    /// admission number, so post-crash submissions continue the sequence.
    pub next_seq: u64,
    /// Records whose payload failed to decode (never produced by this
    /// writer; counted, skipped, reported at shutdown).
    pub decode_errors: u64,
}

/// The durable job journal (see module docs). One per service, behind the
/// service's own mutex; every method is infallible by design — failures
/// wedge the journal instead of surfacing, per the module contract.
pub struct JobJournal {
    log: LogMgr,
    hook: Option<BoundaryHook>,
    boundary: u64,
    errors: u64,
    wedged: bool,
}

impl fmt::Debug for JobJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobJournal")
            .field("boundary", &self.boundary)
            .field("errors", &self.errors)
            .field("wedged", &self.wedged)
            .finish()
    }
}

impl JobJournal {
    /// Open (creating if absent) the journal under `dir`, running the WAL
    /// recovery scan and partitioning its records. `faults` threads the
    /// seeded disk-fault plan into the journal's own file manager — the
    /// E21 torn/short/fsync cells.
    pub fn open(
        dir: &Path,
        faults: Option<DiskFaultPlan>,
        hook: Option<BoundaryHook>,
    ) -> PipelineResult<(JobJournal, JournalScan)> {
        // Quiet: the journal's own disk traffic is crash-safety
        // bookkeeping, not job work. Letting its `wal.*`/`disk.*`
        // counters hit the ambient sheet would leak journal activity —
        // which varies with scheduling, crash position, and wedges —
        // into per-job shards and break the byte-identity contract.
        let (log, records) = dbpc_obs::quiet(|| {
            let fm = FileMgr::new(dir, DEFAULT_PAGE_SIZE)
                .map_err(journal_err)?
                .with_faults(faults);
            LogMgr::open(Arc::new(fm), JOURNAL_FILE).map_err(journal_err)
        })?;

        let mut admits: BTreeMap<u64, RecoveredJob> = BTreeMap::new();
        let mut dones: BTreeMap<u64, (Capture, MetricsFrame)> = BTreeMap::new();
        let mut shed: BTreeSet<u64> = BTreeSet::new();
        let mut next_seq = 0u64;
        let mut decode_errors = 0u64;
        for (_, payload) in &records {
            match decode(payload) {
                Ok(Record::Admit(job)) => {
                    next_seq = next_seq.max(job.seq + 1);
                    admits.insert(job.seq, job);
                }
                Ok(Record::Done(seq, cap, frame)) => {
                    next_seq = next_seq.max(seq + 1);
                    // Last-wins: a replayed job's second DONE supersedes.
                    dones.insert(seq, (cap, frame));
                }
                Ok(Record::Shed(seq)) => {
                    next_seq = next_seq.max(seq + 1);
                    shed.insert(seq);
                }
                Err(_) => decode_errors += 1,
            }
        }
        let admitted = admits.len() as u64;
        let pending = admits
            .into_values()
            .filter(|j| !dones.contains_key(&j.seq) && !shed.contains(&j.seq))
            .collect();
        let results = dones
            .into_iter()
            .map(|(seq, (cap, frame))| (seq, cap, frame))
            .collect();
        Ok((
            JobJournal {
                log,
                hook,
                boundary: 0,
                errors: 0,
                wedged: false,
            },
            JournalScan {
                pending,
                results,
                shed: shed.into_iter().collect(),
                admitted,
                next_seq,
                decode_errors,
            },
        ))
    }

    /// Journal one admission, durably (append + fsync): after this
    /// returns un-wedged, a restart will either find the job's result or
    /// replay it.
    pub fn admit(&mut self, seq: u64, session: u64, ctx: usize, key: u64, program: &Program) {
        let text = print_program(program);
        let mut w = ByteWriter::new();
        w.put_u8(TAG_ADMIT);
        w.put_u64(seq);
        w.put_u64(session);
        w.put_u64(ctx as u64);
        w.put_u64(key);
        w.put_u64(fnv64(text.as_bytes()));
        w.put_str(&text);
        self.write(w.into_bytes(), JournalEvent::AdmitStaged, true);
        self.fire(JournalEvent::AdmitDurable);
    }

    /// Journal one completed job's observability shard. Append-only: made
    /// durable by the next [`JobJournal::finalize`] (or a page-boundary
    /// eager write); a kill before then just means the job replays.
    pub fn done(&mut self, seq: u64, capture: &Capture, delta: &MetricsFrame) {
        self.write(
            encode_done(seq, capture, delta),
            JournalEvent::DoneStaged,
            false,
        );
    }

    /// Journal one shed seq (admission rejection, eviction, or drain
    /// expiry) so recovery never replays a job the client was told failed.
    pub fn shed(&mut self, seq: u64) {
        let mut w = ByteWriter::new();
        w.put_u8(TAG_SHED);
        w.put_u64(seq);
        self.write(w.into_bytes(), JournalEvent::ShedStaged, false);
    }

    /// Flush the staged tail durably (append + fsync). Called by service
    /// shutdown *and* by `Drop` — a service dropped without `shutdown`
    /// must not lose completed results that were only staged.
    pub fn finalize(&mut self) {
        if self.wedged {
            return;
        }
        if dbpc_obs::quiet(|| self.log.flush()).is_err() {
            self.wedge();
            return;
        }
        self.fire(JournalEvent::Finalized);
    }

    /// Disk errors surfaced so far (the journal wedges on the first).
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Has a disk error wedged the journal?
    pub fn wedged(&self) -> bool {
        self.wedged
    }

    fn write(&mut self, payload: Vec<u8>, staged: JournalEvent, sync: bool) {
        if self.wedged {
            return;
        }
        if dbpc_obs::quiet(|| self.log.append(&payload)).is_err() {
            self.wedge();
            return;
        }
        self.fire(staged);
        if sync && dbpc_obs::quiet(|| self.log.flush()).is_err() {
            self.wedge();
        }
    }

    fn wedge(&mut self) {
        self.errors += 1;
        self.wedged = true;
    }

    fn fire(&mut self, event: JournalEvent) {
        if self.wedged {
            return;
        }
        let index = self.boundary;
        self.boundary += 1;
        if let Some(hook) = &self.hook {
            (hook.0)(event, index);
        }
    }
}

enum Record {
    Admit(RecoveredJob),
    Done(u64, Capture, MetricsFrame),
    Shed(u64),
}

fn decode(payload: &[u8]) -> CodecResult<Record> {
    let mut r = ByteReader::new(payload);
    let record = match r.get_u8("journal tag")? {
        TAG_ADMIT => {
            let seq = r.get_u64("admit seq")?;
            let session = r.get_u64("admit session")?;
            let ctx = r.get_u64("admit ctx")? as usize;
            let key = r.get_u64("admit key")?;
            let text_fp = r.get_u64("admit text fp")?;
            let text = r.get_str("admit program")?;
            if fnv64(text.as_bytes()) != text_fp {
                return Err(fail("admit program", "fingerprint mismatch"));
            }
            let program = parse_program(&text)
                .map_err(|e| fail("admit program", format!("re-parse: {e}")))?;
            Record::Admit(RecoveredJob {
                seq,
                session,
                ctx,
                key,
                program,
            })
        }
        TAG_DONE => {
            let body_fp = r.get_u64("done body fp")?;
            let body = r.get_bytes("done body")?;
            if fnv64(body) != body_fp {
                return Err(fail("done body", "fingerprint mismatch"));
            }
            let mut b = ByteReader::new(body);
            let seq = b.get_u64("done seq")?;
            let (capture, frame) = get_shard(&mut b)?;
            consumed(&b, "done body")?;
            Record::Done(seq, capture, frame)
        }
        TAG_SHED => Record::Shed(r.get_u64("shed seq")?),
        TAG_DONE_JSON => return Err(fail("journal tag", "retired JSON DONE record")),
        other => return Err(fail("journal tag", format!("unknown tag {other}"))),
    };
    consumed(&r, "journal record")?;
    Ok(record)
}

/// Reject trailing bytes: the writer never leaves any.
fn consumed(r: &ByteReader<'_>, context: &'static str) -> CodecResult<()> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(fail(context, format!("{n} trailing bytes"))),
    }
}

/// A `DONE` payload: tag, then a fingerprinted body of the seq and the
/// binary shard (layout in the module docs).
fn encode_done(seq: u64, capture: &Capture, frame: &MetricsFrame) -> Vec<u8> {
    let mut b = ByteWriter::new();
    b.put_u64(seq);
    b.put_u64(capture.ticks);
    put_spans(&mut b, &capture.spans);
    b.put_u32(frame.len() as u32);
    for (name, value) in frame.iter() {
        b.put_str(name);
        match value {
            MetricValue::Counter(n) => {
                b.put_u8(0);
                b.put_u64(*n);
            }
            MetricValue::Racy(n) => {
                b.put_u8(1);
                b.put_u64(*n);
            }
            MetricValue::Gauge(g) => {
                b.put_u8(2);
                b.put_i64(*g);
            }
            MetricValue::Time(n) => {
                b.put_u8(3);
                b.put_u64(*n);
            }
            MetricValue::Hist(h) => {
                b.put_u8(4);
                b.put_u64(h.count);
                b.put_u64(h.sum);
                b.put_u64(h.min);
                b.put_u64(h.max);
            }
        }
    }
    let body = b.into_bytes();
    let mut w = ByteWriter::new();
    w.put_u8(TAG_DONE);
    w.put_u64(fnv64(&body));
    w.put_bytes(&body);
    w.into_bytes()
}

fn put_spans(w: &mut ByteWriter, spans: &[SpanNode]) {
    w.put_u32(spans.len() as u32);
    for s in spans {
        w.put_u8(match s.kind {
            SpanKind::Span => 0,
            SpanKind::Event => 1,
        });
        w.put_str(&s.name);
        w.put_u64(s.seq_open);
        w.put_u64(s.seq_close);
        w.put_u32(s.attrs.len() as u32);
        for (k, v) in &s.attrs {
            w.put_str(k);
            w.put_str(v);
        }
        match s.wall_ns {
            None => w.put_u8(0),
            Some(ns) => {
                w.put_u8(1);
                w.put_u64(ns);
            }
        }
        put_spans(w, &s.children);
    }
}

/// Read an element count, rejecting any the bytes left could not hold at
/// `min_bytes` apiece, so a corrupt count never drives an allocation.
fn get_count(
    r: &mut ByteReader<'_>,
    min_bytes: usize,
    context: &'static str,
) -> CodecResult<usize> {
    let n = r.get_u32(context)? as usize;
    if n.saturating_mul(min_bytes) > r.remaining() {
        return Err(fail(
            context,
            format!("count {n} exceeds the {} bytes left", r.remaining()),
        ));
    }
    Ok(n)
}

fn get_shard(r: &mut ByteReader<'_>) -> CodecResult<(Capture, MetricsFrame)> {
    let ticks = r.get_u64("shard ticks")?;
    let spans = get_spans(r, 0)?;
    let mut frame = MetricsFrame::new();
    let mut prev: Option<String> = None;
    for _ in 0..get_count(r, MIN_METRIC_BYTES, "shard metrics")? {
        let name = r.get_str("metric name")?;
        if prev.as_ref().is_some_and(|p| *p >= name) {
            return Err(fail("metric name", format!("{name:?} out of order")));
        }
        let value = match r.get_u8("metric kind")? {
            0 => MetricValue::Counter(r.get_u64("counter value")?),
            1 => MetricValue::Racy(r.get_u64("racy value")?),
            2 => MetricValue::Gauge(r.get_i64("gauge value")?),
            3 => MetricValue::Time(r.get_u64("time value")?),
            4 => MetricValue::Hist(Hist {
                count: r.get_u64("hist count")?,
                sum: r.get_u64("hist sum")?,
                min: r.get_u64("hist min")?,
                max: r.get_u64("hist max")?,
            }),
            k => return Err(fail("metric kind", format!("unknown kind {k}"))),
        };
        frame.set(name.clone(), value);
        prev = Some(name);
    }
    Ok((Capture { spans, ticks }, frame))
}

fn get_spans(r: &mut ByteReader<'_>, depth: usize) -> CodecResult<Vec<SpanNode>> {
    let n = get_count(r, MIN_SPAN_BYTES, "span count")?;
    if n > 0 && depth >= MAX_SPAN_DEPTH {
        return Err(fail("span count", "spans nest too deep"));
    }
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = match r.get_u8("span kind")? {
            0 => SpanKind::Span,
            1 => SpanKind::Event,
            k => return Err(fail("span kind", format!("unknown kind {k}"))),
        };
        let name = r.get_str("span name")?;
        let seq_open = r.get_u64("span open")?;
        let seq_close = r.get_u64("span close")?;
        let n_attrs = get_count(r, MIN_ATTR_BYTES, "span attrs")?;
        let mut attrs = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            attrs.push((r.get_str("attr key")?, r.get_str("attr value")?));
        }
        let wall_ns = match r.get_u8("span wall flag")? {
            0 => None,
            1 => Some(r.get_u64("span wall_ns")?),
            f => return Err(fail("span wall flag", format!("unknown flag {f}"))),
        };
        let children = get_spans(r, depth + 1)?;
        spans.push(SpanNode {
            kind,
            name,
            attrs,
            seq_open,
            seq_close,
            wall_ns,
            children,
        });
    }
    Ok(spans)
}

fn journal_err(e: dbpc_storage::disk::DiskError) -> dbpc_datamodel::error::PipelineError {
    ModelError::invalid(format!("job journal: {e}")).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_storage::disk::{DiskFault, TempDir};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn program() -> Program {
        dbpc_dml::host::parse_program(
            "PROGRAM J;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  FOR EACH R IN E DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
        )
        .unwrap()
    }

    fn shard() -> (Capture, MetricsFrame) {
        let ((), cap) = dbpc_obs::capture("session0.job1", || {
            dbpc_obs::event("unit");
        });
        let mut frame = MetricsFrame::new();
        frame.set("service.jobs", MetricValue::Counter(1));
        (cap, frame)
    }

    #[test]
    fn admit_done_shed_round_trip_across_reopen() {
        let dir = TempDir::new("journal-roundtrip").unwrap();
        let (mut j, scan) = JobJournal::open(dir.path(), None, None).unwrap();
        assert_eq!(scan.admitted, 0);
        assert_eq!(scan.next_seq, 0);
        let p = program();
        j.admit(0, 0, 0, 7, &p);
        j.admit(1, 0, 0, 8, &p);
        j.admit(2, 1, 0, 9, &p);
        let (cap, frame) = shard();
        j.done(0, &cap, &frame);
        j.shed(2);
        j.finalize();
        drop(j);

        let (_, scan) = JobJournal::open(dir.path(), None, None).unwrap();
        assert_eq!(scan.admitted, 3);
        assert_eq!(scan.next_seq, 3);
        assert_eq!(scan.shed, vec![2]);
        assert_eq!(scan.decode_errors, 0);
        // Exactly job 1 is pending: 0 completed, 2 shed.
        assert_eq!(scan.pending.len(), 1);
        let pending = &scan.pending[0];
        assert_eq!((pending.seq, pending.session, pending.key), (1, 0, 8));
        assert_eq!(pending.program, p);
        // The completed shard round-trips byte-identically.
        assert_eq!(scan.results.len(), 1);
        let (seq, cap2, frame2) = &scan.results[0];
        assert_eq!(*seq, 0);
        assert_eq!(cap2, &cap);
        assert_eq!(frame2, &frame);
    }

    #[test]
    fn staged_done_is_lost_without_finalize_but_admit_survives() {
        let dir = TempDir::new("journal-staged").unwrap();
        let (mut j, _) = JobJournal::open(dir.path(), None, None).unwrap();
        j.admit(0, 0, 0, 1, &program());
        let (cap, frame) = shard();
        j.done(0, &cap, &frame);
        drop(j); // kill: no finalize

        let (_, scan) = JobJournal::open(dir.path(), None, None).unwrap();
        // The fsync'd admit survived; the staged-only done did not — the
        // job replays, which is the idempotent-recovery contract.
        assert_eq!(scan.admitted, 1);
        assert_eq!(scan.results.len(), 0);
        assert_eq!(scan.pending.len(), 1);
    }

    #[test]
    fn disk_fault_wedges_instead_of_erroring() {
        let dir = TempDir::new("journal-wedge").unwrap();
        // FsyncFail is inert on read/write ops, so targeting the first
        // few indices hits exactly the admit's fsync wherever it lands.
        let plan = (0..8).fold(DiskFaultPlan::default(), |p, i| {
            p.with_fault_at(i, DiskFault::FsyncFail)
        });
        let (mut j, _) = JobJournal::open(dir.path(), Some(plan), None).unwrap();
        assert!(!j.wedged());
        j.admit(0, 0, 0, 1, &program());
        assert!(j.wedged(), "failed fsync must wedge the journal");
        assert_eq!(j.errors(), 1);
        // Wedged journal: every later op is a silent no-op.
        let (cap, frame) = shard();
        j.done(0, &cap, &frame);
        j.shed(1);
        j.finalize();
        assert_eq!(j.errors(), 1);
    }

    #[test]
    fn boundary_hook_sees_monotone_indices() {
        let dir = TempDir::new("journal-hook").unwrap();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let hook = BoundaryHook::new(move |_, index| {
            assert_eq!(index, seen2.fetch_add(1, Ordering::SeqCst));
        });
        let (mut j, _) = JobJournal::open(dir.path(), None, Some(hook)).unwrap();
        j.admit(0, 0, 0, 1, &program());
        let (cap, frame) = shard();
        j.done(0, &cap, &frame);
        j.finalize();
        // admit staged + admit durable + done staged + finalized
        assert_eq!(seen.load(Ordering::SeqCst), 4);
    }

    /// Decode `payload` as a `DONE` record, or say why it is not one.
    fn decode_done(payload: &[u8]) -> Result<(u64, Capture, MetricsFrame), String> {
        match decode(payload) {
            Ok(Record::Done(seq, cap, frame)) => Ok((seq, cap, frame)),
            Ok(_) => Err("decoded as another record".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Encode, decode, and demand the exact input back. `SpanNode`
    /// equality ignores `wall_ns`, so re-encoding must also reproduce
    /// the payload byte for byte.
    fn assert_round_trip(seq: u64, cap: &Capture, frame: &MetricsFrame) {
        let payload = encode_done(seq, cap, frame);
        let (seq2, cap2, frame2) = decode_done(&payload).unwrap();
        assert_eq!((seq2, &cap2, &frame2), (seq, cap, frame));
        assert_eq!(encode_done(seq2, &cap2, &frame2), payload);
    }

    fn every_metric_kind() -> MetricsFrame {
        let mut frame = MetricsFrame::new();
        frame.set("a.counter", MetricValue::Counter(u64::MAX));
        frame.set("b.racy", MetricValue::Racy(2));
        frame.set("c.gauge", MetricValue::Gauge(-4));
        frame.set("d.time", MetricValue::Time(500));
        frame.observe("e.hist", 7);
        frame.observe("e.hist", 3);
        frame
    }

    #[test]
    fn binary_shard_round_trips_explicit_cases() {
        // A nested span with an attr and an event; three metric kinds.
        let ((), cap) = dbpc_obs::capture("job", || {
            dbpc_obs::span_with("stage.converter", &[("key", "7")], || {
                dbpc_obs::event("rewrite");
            });
        });
        let mut frame = MetricsFrame::new();
        frame.set("jobs.converted", MetricValue::Counter(1));
        frame.set("locks.waits", MetricValue::Racy(2));
        frame.set("host.threads", MetricValue::Gauge(4));
        assert_round_trip(7, &cap, &frame);

        let (cap, frame) = shard();
        assert_round_trip(0, &cap, &frame);
        assert_round_trip(u64::MAX, &Capture::default(), &MetricsFrame::new());

        let mut walled = cap.clone();
        walled.spans[0].wall_ns = Some(123_456);
        walled.spans[0].children[0].wall_ns = Some(0);
        walled.spans[0]
            .attrs
            .push(("é中😀".to_string(), "\"\\\n".to_string()));
        assert_round_trip(3, &walled, &every_metric_kind());
    }

    /// A flat preorder list of (depth, node) pairs, folded into a forest:
    /// each node nests under the previous one when its depth is greater.
    fn forest(
        items: &mut std::iter::Peekable<std::vec::IntoIter<(usize, SpanNode)>>,
        depth: usize,
    ) -> Vec<SpanNode> {
        let mut out = Vec::new();
        while let Some((_, mut node)) = items.next_if(|(d, _)| *d >= depth) {
            node.children = forest(items, depth + 1);
            out.push(node);
        }
        out
    }

    fn node_strategy() -> impl Strategy<Value = (usize, SpanNode)> {
        let text = "[a-z0-9.é中😀\"\\\\\n ]{0,10}";
        (
            0usize..4,
            any::<bool>(),
            text,
            (any::<u64>(), any::<u64>()),
            prop::collection::vec((text, text), 0..3),
            prop::option::of(any::<u64>()),
        )
            .prop_map(
                |(depth, event, name, (seq_open, seq_close), attrs, wall_ns)| {
                    let node = SpanNode {
                        kind: if event {
                            SpanKind::Event
                        } else {
                            SpanKind::Span
                        },
                        name,
                        attrs,
                        seq_open,
                        seq_close,
                        wall_ns,
                        children: Vec::new(),
                    };
                    (depth, node)
                },
            )
    }

    fn metric_strategy() -> impl Strategy<Value = (String, MetricValue)> {
        let value = prop_oneof![
            any::<u64>().prop_map(MetricValue::Counter),
            any::<u64>().prop_map(MetricValue::Racy),
            any::<i64>().prop_map(MetricValue::Gauge),
            any::<u64>().prop_map(MetricValue::Time),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
                |(count, sum, min, max)| MetricValue::Hist(Hist {
                    count,
                    sum,
                    min,
                    max
                })
            ),
        ];
        ("[a-z.é]{0,12}", value)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn binary_shard_round_trips(
            seq in any::<u64>(),
            ticks in any::<u64>(),
            nodes in prop::collection::vec(node_strategy(), 0..12),
            metrics in prop::collection::vec(metric_strategy(), 0..8),
        ) {
            let spans = forest(&mut nodes.into_iter().peekable(), 0);
            let cap = Capture { spans, ticks };
            let mut frame = MetricsFrame::new();
            for (name, value) in metrics {
                frame.set(name, value);
            }
            let payload = encode_done(seq, &cap, &frame);
            let decoded = decode_done(&payload);
            prop_assert_eq!(decoded.as_ref().map(|(s, c, f)| (*s, c, f)), Ok((seq, &cap, &frame)));
            let (seq2, cap2, frame2) = decoded.map_err(TestCaseError::fail)?;
            prop_assert_eq!(encode_done(seq2, &cap2, &frame2), payload);
        }
    }

    #[test]
    fn corrupt_done_payload_is_an_error_or_the_original() {
        let (mut cap, _) = shard();
        cap.spans[0].wall_ns = Some(99);
        let payload = encode_done(5, &cap, &every_metric_kind());
        let check = |bytes: &[u8], what: &str| {
            if let Ok((seq, c, f)) = decode_done(bytes) {
                assert_eq!(
                    encode_done(seq, &c, &f),
                    payload,
                    "{what} decoded to a changed shard"
                );
            }
        };
        for len in 0..payload.len() {
            check(&payload[..len], &format!("truncation to {len} bytes"));
        }
        let mut flipped = payload.clone();
        for at in 0..payload.len() {
            for x in 1..=255u8 {
                flipped[at] = payload[at] ^ x;
                check(&flipped, &format!("byte {at} ^ {x:#04x}"));
            }
            flipped[at] = payload[at];
        }
        let mut padded = payload.clone();
        padded.push(0);
        assert!(
            decode_done(&padded).is_err(),
            "trailing bytes must not decode"
        );

        // Past the fingerprint, the shard decoder itself must stay total:
        // corrupt counts, kinds, flags and lengths are errors, not panics
        // or huge allocations.
        let body = &payload[1 + 8 + 4 + 8..];
        for len in 0..body.len() {
            let _ = get_shard(&mut ByteReader::new(&body[..len]));
        }
        let mut flipped = body.to_vec();
        for at in 0..body.len() {
            for x in 1..=255u8 {
                flipped[at] = body[at] ^ x;
                let _ = get_shard(&mut ByteReader::new(&flipped));
            }
            flipped[at] = body[at];
        }
    }

    #[test]
    fn too_deep_span_nesting_is_a_decode_error() {
        let chain = |depth: usize| {
            (0..depth).fold(Vec::new(), |children, i| {
                vec![SpanNode {
                    kind: SpanKind::Span,
                    name: format!("s{i}"),
                    attrs: Vec::new(),
                    seq_open: 0,
                    seq_close: 0,
                    wall_ns: None,
                    children,
                }]
            })
        };
        let frame = MetricsFrame::new();
        let ok = Capture {
            spans: chain(MAX_SPAN_DEPTH),
            ticks: 1,
        };
        assert_round_trip(1, &ok, &frame);
        let deep = Capture {
            spans: chain(MAX_SPAN_DEPTH + 1),
            ticks: 1,
        };
        let err = decode_done(&encode_done(1, &deep, &frame)).unwrap_err();
        assert!(err.contains("too deep"), "{err}");
    }

    #[test]
    fn corrupt_counts_fail_without_allocating() {
        // A body whose span count claims u32::MAX nodes in a few bytes.
        let mut body = ByteWriter::new();
        body.put_u64(0);
        body.put_u64(0);
        body.put_u32(u32::MAX);
        let body = body.into_bytes();
        let mut w = ByteWriter::new();
        w.put_u8(TAG_DONE);
        w.put_u64(fnv64(&body));
        w.put_bytes(&body);
        let err = decode_done(&w.into_bytes()).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn retired_json_done_is_a_decode_error_and_its_job_replays() {
        let dir = TempDir::new("journal-retired-tag").unwrap();
        let (mut j, _) = JobJournal::open(dir.path(), None, None).unwrap();
        j.admit(0, 0, 0, 1, &program());
        // A DONE as older journals wrote it: tag 2, seq, JSON shard.
        let mut w = ByteWriter::new();
        w.put_u8(TAG_DONE_JSON);
        w.put_u64(0);
        w.put_str(
            r#"{"ticks":1,"spans":[{"kind":"event","name":"unit","open":0,"close":0}],"metrics":[{"name":"service.jobs","kind":"counter","value":1}]}"#,
        );
        j.write(w.into_bytes(), JournalEvent::DoneStaged, false);
        j.finalize();
        drop(j);

        let (_, scan) = JobJournal::open(dir.path(), None, None).unwrap();
        assert_eq!(scan.decode_errors, 1);
        assert_eq!(scan.admitted, 1);
        assert!(scan.results.is_empty());
        assert_eq!(scan.pending.len(), 1);
        assert_eq!(scan.pending[0].seq, 0);
    }
}
