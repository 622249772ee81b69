//! The crash matrix: batched data translation killed at *every* batch
//! boundary, resumed from its checkpoint, must be byte-identical to the
//! uncrashed one-shot run — output database (by fingerprint and derived
//! access structures) *and* translation-work statistics alike — for a
//! spread of transform shapes and at 1, 2, and 8 worker threads.
//!
//! This is the data-translator face of the paper's bridge-program
//! discussion: a long-running translation that dies mid-way must be
//! restartable without re-doing (or double-doing) work, and without the
//! crashed-and-resumed artifact being distinguishable from a clean one.

use dbpc::corpus::named;
use dbpc::datamodel::value::Value;
use dbpc::dml::expr::CmpOp;
use dbpc::obs::{local_snapshot, MetricsFrame};
use dbpc::restructure::stats::{RECORDS_STORED, RECORD_TYPE_PREPS, SCHEMA_CLONES};
use dbpc::restructure::{
    resume_translation, translate_batched, BatchedOutcome, Restructuring, Transform,
};
use dbpc::storage::{pool, NetworkDb};

/// The three `restructure.*` translation-work counters, in that order.
type Work = [u64; 3];

/// The translation-work counters recorded since `before`.
fn work_since(before: &MetricsFrame) -> Work {
    let delta = local_snapshot().since(before);
    [SCHEMA_CLONES, RECORD_TYPE_PREPS, RECORDS_STORED].map(|n| delta.counter(n))
}

/// Small enough to put several boundaries inside every phase of the small
/// test database, so crashes land mid-copy, mid-promote, and mid-erase.
const BATCH: usize = 3;

/// The transform spread: the paper's own Figure 4.2 → 4.4 promotion, its
/// inverse demotion, a plain field rename, and an information-losing
/// delete-where (whose translation erases in place on a cloned database —
/// the one phase plan that starts from a copy instead of empty).
fn cases() -> Vec<(&'static str, NetworkDb, Transform)> {
    let source = named::company_db(4, 3, 8);
    let promote = named::fig_4_4_restructuring();
    let promoted = promote.translate(&source).unwrap();
    let demote = promote.inverse().unwrap().transforms[0].clone();
    vec![
        ("promote", source.clone(), promote.transforms[0].clone()),
        ("demote", promoted, demote),
        (
            "rename",
            source.clone(),
            Transform::RenameField {
                record: "EMP".into(),
                old: "AGE".into(),
                new: "YEARS".into(),
            },
        ),
        (
            "delete-where",
            source,
            Transform::DeleteWhere {
                record: "EMP".into(),
                field: "AGE".into(),
                op: CmpOp::Gt,
                value: Value::Int(40),
            },
        ),
    ]
}

/// One uncrashed batched run: the reference output fingerprint, the
/// reference per-run stats delta, and the number of batch boundaries the
/// run consults (= the crash points to cover).
fn one_shot(db: &NetworkDb, t: &Transform) -> (u64, Work, usize) {
    let mut boundaries = 0;
    let before = local_snapshot();
    let out = match translate_batched(db, t, BATCH, &mut |_| {
        boundaries += 1;
        false
    })
    .unwrap()
    {
        BatchedOutcome::Complete(out) => out,
        BatchedOutcome::Crashed(_) => unreachable!("never-crash plan crashed"),
    };
    out.check_access_structures().unwrap();
    (out.fingerprint(), work_since(&before), boundaries)
}

/// Crash at boundary `point`, resume from the checkpoint, and return the
/// resumed output's fingerprint plus the whole crashed+resumed stats delta.
fn crash_and_resume(db: &NetworkDb, t: &Transform, point: usize) -> (u64, Work) {
    let before = local_snapshot();
    let ckpt = match translate_batched(db, t, BATCH, &mut |b| b == point).unwrap() {
        BatchedOutcome::Crashed(ckpt) => ckpt,
        BatchedOutcome::Complete(_) => panic!("crash at boundary {point} did not fire"),
    };
    // Boundary `point` fires after its batch completed, so the checkpoint
    // has `point + 1` finished batches behind it.
    assert_eq!(
        ckpt.batches_done(),
        point + 1,
        "checkpoint taken at the crash"
    );
    let out = resume_translation(db, t, ckpt).unwrap();
    out.check_access_structures().unwrap();
    (out.fingerprint(), work_since(&before))
}

#[test]
fn resume_is_byte_identical_at_every_crash_point() {
    for (name, db, t) in cases() {
        let (want_fp, want_stats, boundaries) = one_shot(&db, &t);
        assert!(
            boundaries >= 4,
            "{name}: only {boundaries} boundaries — batch too coarse for a \
             meaningful crash matrix"
        );
        for point in 0..boundaries {
            let (fp, profile) = crash_and_resume(&db, &t, point);
            assert_eq!(fp, want_fp, "{name}: output differs after crash at {point}");
            assert_eq!(
                profile, want_stats,
                "{name}: translation work differs after crash at {point} — \
                 the resume re-did or skipped work"
            );
        }
    }
}

/// The same matrix fanned out over worker threads: every `(case, crash
/// point)` cell yields the same fingerprint and stats delta at 1, 2, and
/// 8 threads (the stats counters are thread-local, so a worker's delta
/// must be exactly its own run's work).
#[test]
fn crash_matrix_is_thread_count_invariant() {
    // NetworkDb keeps interior index caches (not Sync), so workers rebuild
    // their case from its index; the work units themselves carry only
    // plain data.
    let mut units = Vec::new();
    for (idx, (_, db, t)) in cases().into_iter().enumerate() {
        let (want_fp, want_stats, boundaries) = one_shot(&db, &t);
        for point in 0..boundaries {
            units.push((idx, point, want_fp, want_stats));
        }
    }
    let run_unit = |&(idx, point, want_fp, want_stats): &(usize, usize, u64, Work)| {
        let (name, db, t) = cases().into_iter().nth(idx).unwrap();
        let (fp, profile) = crash_and_resume(&db, &t, point);
        assert_eq!(fp, want_fp, "{name} point {point}: output drifted");
        assert_eq!(profile, want_stats, "{name} point {point}: stats drifted");
        (fp, profile)
    };
    let reference: Vec<(u64, Work)> = units.iter().map(run_unit).collect();
    for threads in [1, 2, 8] {
        let got = pool::parallel_map(&units, threads, |_, unit| run_unit(unit));
        assert_eq!(got, reference, "matrix changed at {threads} threads");
    }
}

/// A stale checkpoint must be refused, not silently replayed: resuming
/// against a database whose content changed since the checkpoint was
/// taken is a constraint error.
#[test]
fn resume_refuses_a_drifted_source() {
    let (_, db, t) = cases().remove(0);
    let ckpt = match translate_batched(&db, &t, BATCH, &mut |b| b == 1).unwrap() {
        BatchedOutcome::Crashed(ckpt) => ckpt,
        BatchedOutcome::Complete(_) => panic!("crash did not fire"),
    };
    let mut drifted = db.clone();
    let doomed = drifted.records_of_type("EMP")[0];
    drifted.erase(doomed, false).unwrap();
    let err = resume_translation(&drifted, &t, ckpt).unwrap_err();
    assert!(
        err.to_string().contains("checkpoint"),
        "unexpected error: {err}"
    );
}

/// The sequencing layer recovers in line: a `Restructuring` run through
/// `translate_checkpointed` with injected crashes produces the same
/// database as the plain `translate` path.
#[test]
fn checkpointed_sequence_matches_plain_translation() {
    let db = named::company_db(4, 3, 8);
    let r = named::fig_4_4_restructuring();
    let plain = r.translate(&db).unwrap();
    let mut crashes = vec![0usize, 3, 7];
    let recovered = r
        .translate_checkpointed(&db, BATCH, &mut |b| crashes.contains(&b))
        .unwrap();
    assert_eq!(recovered.fingerprint(), plain.fingerprint());
    recovered.check_access_structures().unwrap();
    crashes.clear();
    let uncrashed = r
        .translate_checkpointed(&db, BATCH, &mut |_| false)
        .unwrap();
    assert_eq!(uncrashed.fingerprint(), plain.fingerprint());
}

/// `Restructuring::single` + `inverse` round-trip under crashes: promote
/// crashed-and-resumed, then demote crashed-and-resumed, lands back on a
/// database trace-equal to the source (modulo the internal id allocator,
/// so compare resolved content rather than raw fingerprints).
#[test]
fn crashed_round_trip_preserves_content() {
    let db = named::company_db(3, 2, 6);
    let promote = named::fig_4_4_restructuring();
    let inverse = promote.inverse().unwrap();
    let there = promote
        .translate_checkpointed(&db, BATCH, &mut |b| b == 2)
        .unwrap();
    let back = inverse
        .translate_checkpointed(&there, BATCH, &mut |b| b == 1)
        .unwrap();
    let clean_back = inverse.translate(&promote.translate(&db).unwrap()).unwrap();
    assert_eq!(back.fingerprint(), clean_back.fingerprint());
    back.check_access_structures().unwrap();
}

/// One crash point inside the `Restructuring` fan must not fire twice
/// when the sequence holds several transforms: boundary indices are
/// per-transform, so the crash plan sees each transform's boundary 0.
#[test]
fn multi_transform_sequences_resume_per_transform() {
    let db = named::company_db(3, 2, 6);
    let r = Restructuring::new(vec![
        Transform::RenameField {
            record: "EMP".into(),
            old: "AGE".into(),
            new: "YEARS".into(),
        },
        Transform::RenameRecord {
            old: "DIV".into(),
            new: "BRANCH".into(),
        },
    ]);
    let plain = r.translate(&db).unwrap();
    let mut fired = 0;
    let recovered = r
        .translate_checkpointed(&db, BATCH, &mut |b| {
            if b == 0 {
                fired += 1;
                true
            } else {
                false
            }
        })
        .unwrap();
    assert_eq!(fired, 2, "each transform consults its own boundary 0");
    assert_eq!(recovered.fingerprint(), plain.fingerprint());
}
