//! The paged backend's dense id directory behaves like the in-memory
//! record map: the same operation sequence applied to a paged and a Mem
//! database keeps their fingerprints equal after every step, across
//! holes left by erased ids, savepoint rollbacks that reinstate an id,
//! and erasure of the highest id. Recovery and the state decoder reject
//! a record id at or above `next_id` with a typed error.

use dbpc_datamodel::network::{FieldDef, NetworkSchema, RecordTypeDef, SetDef};
use dbpc_datamodel::types::FieldType;
use dbpc_datamodel::value::Value;
use dbpc_storage::disk::{FileMgr, TempDir};
use dbpc_storage::{DbError, NetworkDb, RecordId};
use std::sync::Arc;

const PAGE: usize = 128;
const POOL: usize = 4;

fn schema() -> NetworkSchema {
    NetworkSchema::new("COMPANY-NAME")
        .with_record(RecordTypeDef::new(
            "DIV",
            vec![FieldDef::new("DIV-NAME", FieldType::Char(20))],
        ))
        .with_record(RecordTypeDef::new(
            "EMP",
            vec![
                FieldDef::new("EMP-NAME", FieldType::Char(25)),
                FieldDef::new("AGE", FieldType::Int(2)),
            ],
        ))
        .with_set(SetDef::system("ALL-DIV", "DIV", vec!["DIV-NAME"]))
        .with_set(SetDef::owned("DIV-EMP", "DIV", "EMP", vec!["EMP-NAME"]))
}

/// Two divisions (ids 1, 2) and ten employees (ids 3..=12).
fn populate(db: &mut NetworkDb) {
    let divs: Vec<RecordId> = (0..2)
        .map(|d| {
            db.store("DIV", &[("DIV-NAME", Value::str(format!("DIV-{d}")))], &[])
                .unwrap()
        })
        .collect();
    for e in 0..10 {
        db.store(
            "EMP",
            &[
                ("EMP-NAME", Value::str(format!("EMP-{e:02}"))),
                ("AGE", Value::Int(20 + e)),
            ],
            &[("DIV-EMP", divs[e as usize % 2])],
        )
        .unwrap();
    }
}

fn ids(recs: Vec<dbpc_storage::StoredRecord>) -> Vec<u64> {
    recs.into_iter().map(|r| r.id.0).collect()
}

/// Every directory-backed read agrees between the two backends.
fn assert_same(step: &str, paged: &NetworkDb, mem: &NetworkDb) {
    assert_eq!(
        paged.fingerprint(),
        mem.fingerprint(),
        "{step}: fingerprint"
    );
    assert_eq!(paged.record_count(), mem.record_count(), "{step}: count");
    assert_eq!(paged.max_record_id(), mem.max_record_id(), "{step}: max id");
    for after in 0..=mem.max_record_id().map_or(0, |r| r.0 + 1) {
        assert_eq!(
            ids(paged.records_above(RecordId(after))),
            ids(mem.records_above(RecordId(after))),
            "{step}: records_above({after})"
        );
        let id = RecordId(after);
        assert_eq!(paged.get(id), mem.get(id), "{step}: get({after})");
    }
}

/// Apply `f` to both databases, then compare them.
fn both(step: &str, paged: &mut NetworkDb, mem: &mut NetworkDb, f: impl Fn(&mut NetworkDb)) {
    f(paged);
    f(mem);
    assert_same(step, paged, mem);
}

#[test]
fn dense_directory_matches_mem_backend_across_holes() {
    let mut paged = NetworkDb::new_paged(schema(), PAGE, POOL).unwrap();
    let mut mem = NetworkDb::new(schema()).unwrap();
    let (p, m) = (&mut paged, &mut mem);
    both("populate", p, m, populate);
    assert_eq!(m.max_record_id(), Some(RecordId(12)));

    // Holes in the middle.
    both("erase middle", p, m, |db| {
        db.erase(RecordId(5), false).unwrap();
        db.erase(RecordId(8), false).unwrap();
    });
    assert_eq!(m.record_count(), 10);
    assert!(matches!(p.get(RecordId(5)), Err(DbError::NotFound(_))));

    // Erasing the highest id: the maximum drops to the next live id.
    both("erase highest", p, m, |db| {
        db.erase(RecordId(12), false).unwrap();
    });
    assert_eq!(p.max_record_id(), Some(RecordId(11)));

    // Erasing down to a hole: the maximum skips the hole.
    both("erase down to a hole", p, m, |db| {
        db.erase(RecordId(11), false).unwrap();
        db.erase(RecordId(10), false).unwrap();
        db.erase(RecordId(9), false).unwrap();
    });
    assert_eq!(p.max_record_id(), Some(RecordId(7)));

    // A rolled-back erase reinstates the same id, the highest included.
    both("rollback erase", p, m, |db| {
        let sp = db.begin_savepoint();
        db.erase(RecordId(7), false).unwrap();
        db.erase(RecordId(4), false).unwrap();
        db.rollback_to(sp);
    });
    assert_eq!(p.max_record_id(), Some(RecordId(7)));
    assert_eq!(p.get(RecordId(4)).unwrap().id, RecordId(4));

    // A new record takes the next id, not a hole, and an erased id stays
    // unreadable.
    both("store after holes", p, m, |db| {
        let id = db
            .store(
                "EMP",
                &[("EMP-NAME", Value::str("EMP-NEW")), ("AGE", Value::Int(40))],
                &[("DIV-EMP", RecordId(1))],
            )
            .unwrap();
        assert_eq!(id, RecordId(13));
    });
    assert_eq!(p.max_record_id(), Some(RecordId(13)));
    assert!(p.get(RecordId(12)).is_err());

    // A rolled-back store drops the id again.
    both("rollback store", p, m, |db| {
        let sp = db.begin_savepoint();
        db.store("DIV", &[("DIV-NAME", Value::str("DIV-GONE"))], &[])
            .unwrap();
        db.rollback_to(sp);
    });
    assert_eq!(p.max_record_id(), Some(RecordId(13)));
}

/// A caller-owned paged database with holes, flushed to its heap file.
fn flushed_with_holes(fm: &Arc<FileMgr>) -> NetworkDb {
    let mut db = NetworkDb::paged_on(schema(), Arc::clone(fm), "heap.dat", POOL).unwrap();
    populate(&mut db);
    for id in [4, 9, 12] {
        db.erase(RecordId(id), false).unwrap();
    }
    db.sync_links().unwrap();
    db.flush_heap().unwrap();
    db
}

#[test]
fn recovery_over_holes_rebuilds_the_directory() {
    let dir = TempDir::new("paged-dir-recover").unwrap();
    let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
    let db = flushed_with_holes(&fm);
    let (next_id, seqs) = db.allocator_state();
    let back =
        NetworkDb::recover_paged(schema(), Arc::clone(&fm), "heap.dat", POOL, next_id, &seqs)
            .unwrap();
    assert_eq!(back.fingerprint(), db.fingerprint());
    assert_eq!(back.max_record_id(), Some(RecordId(11)));
    assert_eq!(back.record_count(), 9);
    assert_eq!(ids(back.records_above(RecordId(3))), [5, 6, 7, 8, 10, 11]);
}

#[test]
fn recovery_rejects_a_record_id_at_or_above_next_id() {
    let dir = TempDir::new("paged-dir-corrupt").unwrap();
    let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
    let db = flushed_with_holes(&fm);
    let (_, seqs) = db.allocator_state();
    // The heap holds record 11; metadata claiming next_id = 11 is corrupt.
    for next_id in [0, 1, 11] {
        let err =
            NetworkDb::recover_paged(schema(), Arc::clone(&fm), "heap.dat", POOL, next_id, &seqs)
                .unwrap_err();
        match err {
            DbError::Constraint { rule } => assert!(
                rule.contains("corrupt") && rule.contains("next_id"),
                "next_id {next_id}: {rule}"
            ),
            other => panic!("next_id {next_id}: untyped failure {other:?}"),
        }
    }
}

#[test]
fn state_decoder_rejects_a_record_id_at_or_above_next_id() {
    let mut mem = NetworkDb::new(schema()).unwrap();
    populate(&mut mem);
    let mut bytes = mem.state_bytes();
    // The image opens with its magic, then next_id (13); claim 12.
    assert_eq!(bytes[8..16], 13u64.to_le_bytes());
    bytes[8..16].copy_from_slice(&12u64.to_le_bytes());
    let dir = TempDir::new("paged-dir-state").unwrap();
    let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
    for err in [
        NetworkDb::from_state_bytes(schema(), &bytes).unwrap_err(),
        NetworkDb::from_state_bytes_paged(schema(), &bytes, fm, "heap.dat", POOL).unwrap_err(),
    ] {
        match err {
            DbError::Constraint { rule } => {
                assert!(rule.contains("record id 12 not below next_id 12"), "{rule}")
            }
            other => panic!("untyped failure {other:?}"),
        }
    }
}
