//! Access-path regression tests.
//!
//! The paper's equivalence criterion (§1.1) is observable I/O; the access
//! path is free to change underneath it — that freedom is what the
//! Optimizer box in Fig. 4.1 exploits. These tests pin both halves of that
//! contract: indexed and scanning executions produce **byte-identical**
//! traces, and the counters prove the cheaper path actually engaged.

use dbpc::datamodel::hierarchical::{HierSchema, SegmentDef};
use dbpc::datamodel::network::FieldDef;
use dbpc::datamodel::relational::{ColumnDef, RelationalSchema, TableDef};
use dbpc::datamodel::types::FieldType;
use dbpc::datamodel::value::Value;
use dbpc::dml::dli::parse_dli;
use dbpc::dml::sequel::parse_sequel_program;
use dbpc::engine::dli_exec::run_dli;
use dbpc::engine::sequel_exec::run_sequel;
use dbpc::engine::Inputs;
use dbpc::obs::{local_snapshot, MetricsFrame};
use dbpc::storage::stats::{INDEX_HITS, PREORDER_REBUILDS, ROWS_SCANNED};
use dbpc::storage::{HierDb, RelationalDb};

/// Run `f` and return its result with the metrics it recorded.
fn measured<T>(f: impl FnOnce() -> T) -> (T, MetricsFrame) {
    let before = local_snapshot();
    let out = f();
    (out, local_snapshot().since(&before))
}

const ROWS: i64 = 200;

/// A parts table; `CLASS` takes 10 distinct values so an equality predicate
/// selects ~1/10th of the rows.
fn parts_db(with_index: bool) -> RelationalDb {
    let schema = RelationalSchema::new("INVENTORY").with_table(
        TableDef::new(
            "PART",
            vec![
                ColumnDef::new("P#", FieldType::Int(6)),
                ColumnDef::new("CLASS", FieldType::Char(4)),
                ColumnDef::new("QTY", FieldType::Int(6)),
            ],
        )
        .with_key(vec!["P#"]),
    );
    let mut db = RelationalDb::new(schema).unwrap();
    if with_index {
        db.create_index("PART", &["CLASS"]).unwrap();
    }
    for i in 0..ROWS {
        db.insert(
            "PART",
            &[
                ("P#", Value::Int(i)),
                ("CLASS", Value::str(format!("C{}", i % 10))),
                ("QTY", Value::Int((i * 7) % 100)),
            ],
        )
        .unwrap();
    }
    db
}

const CLASS_QUERY: &str = "SEQUEL PROGRAM Q;
SELECT P#, QTY
FROM PART
WHERE CLASS = 'C3';
END PROGRAM;";

#[test]
fn indexed_select_scans_fewer_rows_with_identical_output() {
    let program = parse_sequel_program(CLASS_QUERY).unwrap();

    let mut scan_db = parts_db(false);
    let (scan_trace, scan) =
        measured(|| run_sequel(&mut scan_db, &program, Inputs::new()).unwrap());

    let mut ix_db = parts_db(true);
    let (ix_trace, ix) = measured(|| run_sequel(&mut ix_db, &program, Inputs::new()).unwrap());

    // Byte-identical observable behavior…
    assert_eq!(scan_trace.events, ix_trace.events);
    assert_eq!(scan_trace.to_string(), ix_trace.to_string());
    assert_eq!(ix_trace.events.len(), (ROWS / 10) as usize);

    // …from a measurably different access path.
    assert_eq!(scan.counter(ROWS_SCANNED), ROWS as u64);
    assert_eq!(scan.counter(INDEX_HITS), 0);
    assert!(
        ix.counter(ROWS_SCANNED) < ROWS as u64,
        "indexed run visited {} rows, expected fewer than {ROWS}",
        ix.counter(ROWS_SCANNED)
    );
    assert_eq!(ix.counter(ROWS_SCANNED), (ROWS / 10) as u64);
    assert!(ix.counter(INDEX_HITS) > 0);
}

#[test]
fn pushdown_handles_residual_and_contradictory_predicates() {
    // Residual: the non-equality conjunct must still filter candidates.
    let residual = parse_sequel_program(
        "SEQUEL PROGRAM R;
SELECT P#
FROM PART
WHERE CLASS = 'C3' AND QTY < 50;
END PROGRAM;",
    )
    .unwrap();
    // Contradictory: duplicate equality terms on one column select nothing.
    let contradictory = parse_sequel_program(
        "SEQUEL PROGRAM C;
SELECT P#
FROM PART
WHERE CLASS = 'C3' AND CLASS = 'C4';
END PROGRAM;",
    )
    .unwrap();
    for program in [&residual, &contradictory] {
        let mut scan_db = parts_db(false);
        let mut ix_db = parts_db(true);
        let scan_trace = run_sequel(&mut scan_db, program, Inputs::new()).unwrap();
        let ix_trace = run_sequel(&mut ix_db, program, Inputs::new()).unwrap();
        assert_eq!(scan_trace.events, ix_trace.events);
    }
}

fn forest() -> HierDb {
    let schema = HierSchema::new("COMPANY").with_root(
        SegmentDef::new("DIV", vec![FieldDef::new("DIV-NAME", FieldType::Char(20))])
            .with_seq_field("DIV-NAME")
            .with_child(
                SegmentDef::new("EMP", vec![FieldDef::new("EMP-NAME", FieldType::Char(25))])
                    .with_seq_field("EMP-NAME"),
            ),
    );
    let mut db = HierDb::new(schema).unwrap();
    for d in 0..5 {
        let div = db
            .insert("DIV", &[("DIV-NAME", Value::str(format!("DIV{d}")))], None)
            .unwrap();
        for e in 0..20 {
            db.insert(
                "EMP",
                &[("EMP-NAME", Value::str(format!("E{d:02}{e:02}")))],
                Some(div),
            )
            .unwrap();
        }
    }
    db
}

#[test]
fn gn_full_traversal_rebuilds_preorder_at_most_once() {
    let mut db = forest();
    let program = parse_dli(
        "DLI PROGRAM WALK.
LOOP.
  GN EMP.
  IF STATUS GB GO TO DONE.
  PRINT EMP-NAME.
  GO TO LOOP.
DONE.
  STOP.
END PROGRAM.",
    )
    .unwrap();
    let (trace, run) = measured(|| run_dli(&mut db, &program, Inputs::new()).unwrap());
    assert_eq!(trace.events.len(), 100);
    // Zero mutations in the program ⇒ preorder_rebuilds ≤ 0 + 1. This is
    // the amortization guarantee: the historical implementation paid a
    // full preorder materialization on every one of the 100+ GN calls.
    assert!(
        run.counter(PREORDER_REBUILDS) <= 1,
        "full GN traversal rebuilt the preorder {} times",
        run.counter(PREORDER_REBUILDS)
    );
}

#[test]
fn gn_with_interleaved_mutations_bounds_rebuilds() {
    let mut db = forest();
    // 3 mutations (2 ISRT + 1 DLET), each followed by more navigation.
    let program = parse_dli(
        "DLI PROGRAM MIX.
  GU DIV(DIV-NAME = 'DIV1').
  ISRT EMP (EMP-NAME = 'NEW-A').
  GN EMP.
  ISRT EMP (EMP-NAME = 'NEW-B').
  GN EMP.
  DLET.
LOOP.
  GN EMP.
  IF STATUS GB GO TO DONE.
  GO TO LOOP.
DONE.
  STOP.
END PROGRAM.",
    )
    .unwrap();
    let (_, run) = measured(|| run_dli(&mut db, &program, Inputs::new()).unwrap());
    let mutations = 3;
    assert!(
        run.counter(PREORDER_REBUILDS) <= mutations + 1,
        "{} rebuilds for {mutations} mutations",
        run.counter(PREORDER_REBUILDS)
    );
}
