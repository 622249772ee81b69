//! Property tests on the observability substrate.
//!
//! Four invariants, each fuzzed over random inputs:
//!
//! 1. ambient metric counters are monotone within a thread — no record
//!    call ever makes a later snapshot smaller;
//! 2. every span a capture opens is closed: arbitrary (even unbalanced)
//!    nesting scripts produce well-formed trees under the logical clock,
//!    and the capture's tick count is exactly what the tree spent;
//! 3. span nesting follows the Stage machine: in a traced conversion,
//!    `stage.*` spans appear only inside a `convert.program` span and in
//!    pipeline order (analyzer ≺ converter ≺ optimizer ≺ generator);
//! 4. storage savepoint rollback never un-counts: observability is
//!    append-only, so metrics survive the rollback of the work they
//!    describe, and the savepoint ledger stays balanced.
//!
//! A fifth group pins the same property per executor, deterministically:
//! a run that fails with a typed error after doing access work leaves
//! that work in the ambient sheet, and the next run's numbers are its own.

use dbpc::convert::report::AutoAnalyst;
use dbpc::convert::Supervisor;
use dbpc::corpus::gen::{generate_program, ProgramClass};
use dbpc::corpus::named;
use dbpc::dml::dbtg::parse_dbtg;
use dbpc::dml::dli::parse_dli;
use dbpc::dml::host::parse_program;
use dbpc::dml::sequel::parse_sequel_program;
use dbpc::engine::dbtg_exec::run_dbtg;
use dbpc::engine::dli_exec::run_dli;
use dbpc::engine::host_exec::{run_host, run_host_with_fuel};
use dbpc::engine::sequel_exec::run_sequel;
use dbpc::engine::{Inputs, RunError, RunResult, Trace};
use dbpc::obs::span::{SpanKind, SpanNode};
use dbpc::storage::stats::{
    INDEX_HITS, INDEX_PROBES, PREORDER_REBUILDS, ROWS_SCANNED, SAVEPOINTS_BEGUN,
    SAVEPOINTS_COMMITTED, SAVEPOINTS_ROLLED_BACK,
};
use dbpc::storage::DbError;
use proptest::prelude::*;

// -- 1. counter monotonicity ------------------------------------------------

proptest! {
    #[test]
    fn ambient_counters_are_monotone(ops in prop::collection::vec((any::<u8>(), any::<u8>()), 0..48)) {
        let mut last = dbpc::obs::local_snapshot();
        for (kind, n) in ops {
            match kind % 3 {
                0 => dbpc::obs::count("test.invariant.counter", n as u64),
                1 => dbpc::obs::racy("test.invariant.racy", n as u64),
                _ => dbpc::obs::time("test.invariant.ns", n as u64),
            }
            let now = dbpc::obs::local_snapshot();
            prop_assert!(now.monotone_since(&last), "snapshot shrank after a record call");
            last = now;
        }
    }
}

// -- 2. captures close everything -------------------------------------------

proptest! {
    #[test]
    fn captures_close_every_span(script in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut spans = 0u64;
        let mut events = 0u64;
        let ((), cap) = dbpc::obs::capture("prop-root", || {
            run_script(&script, 0, &mut spans, &mut events);
        });
        prop_assert_eq!(cap.spans.len(), 1, "capture must yield exactly the root");
        let root = &cap.spans[0];
        prop_assert!(root.well_formed(), "tree violates logical-clock nesting");
        // Node census: the root plus everything the script opened.
        let mut span_nodes = 0u64;
        let mut event_nodes = 0u64;
        root.walk(&mut |n: &SpanNode| match n.kind {
            SpanKind::Span => span_nodes += 1,
            SpanKind::Event => event_nodes += 1,
        });
        prop_assert_eq!(span_nodes, spans + 1, "a span was lost or invented");
        prop_assert_eq!(event_nodes, events);
        // The logical clock ticks once to open and once to close each span,
        // once per event: the capture's tick count is exactly that spend.
        prop_assert_eq!(cap.ticks, 2 * span_nodes + event_nodes);
    }
}

/// Recursive interpreter for the nesting script (split from the proptest
/// block so it can recurse).
fn run_script(script: &[u8], depth: usize, spans: &mut u64, events: &mut u64) {
    let mut i = 0;
    while i < script.len() {
        let b = script[i];
        i += 1;
        match b % 4 {
            0 if depth < 6 => {
                *spans += 1;
                // Consume a prefix of the remainder inside the child span;
                // the child's length depends on the next byte.
                let take = script.get(i).copied().unwrap_or(0) as usize % 8;
                let end = (i + take).min(script.len());
                let (inner, _) = (&script[i..end], ());
                dbpc::obs::span("t.inner", || {
                    run_script(inner, depth + 1, spans, events);
                });
                i = end;
            }
            1 => {
                *events += 1;
                dbpc::obs::event("t.event");
            }
            2 => {
                *spans += 1;
                dbpc::obs::span_with("t.attr", &[("k", "v")], || {});
            }
            _ => {
                *events += 1;
                dbpc::obs::event_with("t.note", &[("i", "x")]);
            }
        }
    }
}

// -- 3. stage-machine nesting ------------------------------------------------

const STAGE_ORDER: [&str; 4] = [
    "stage.analyzer",
    "stage.converter",
    "stage.optimizer",
    "stage.generator",
];

/// Walk with parent context: `stage.*` spans must sit directly under a
/// `convert.program` span, and within one program the stages that do appear
/// must respect pipeline order.
fn check_stage_nesting(node: &SpanNode, parent: Option<&str>) -> Result<(), TestCaseError> {
    if node.name.starts_with("stage.") {
        prop_assert_eq!(
            parent,
            Some("convert.program"),
            "{} outside convert.program",
            node.name.clone()
        );
    }
    if node.name == "convert.program" {
        let stages: Vec<usize> = node
            .children
            .iter()
            .filter_map(|c| STAGE_ORDER.iter().position(|s| c.name == *s))
            .collect();
        let mut sorted = stages.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&stages, &sorted, "stages out of pipeline order");
        prop_assert!(!stages.is_empty(), "traced conversion recorded no stages");
    }
    for c in &node.children {
        check_stage_nesting(c, Some(node.name.as_str()))?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn traced_conversions_follow_the_stage_machine(class in any::<u8>(), seed in any::<u64>()) {
        let pc = ProgramClass::ALL[class as usize % ProgramClass::ALL.len()];
        let program = generate_program(pc, seed);
        let schema = named::company_schema();
        let restructuring = named::fig_4_4_restructuring();
        let report = Supervisor::new()
            .convert_traced(&schema, &restructuring, &program, &mut AutoAnalyst);
        let Ok(report) = report else { return Ok(()) };
        let run = report.run_report.as_ref().expect("traced entry point must attach a report");
        prop_assert!(!run.spans.is_empty());
        for root in &run.spans {
            prop_assert!(root.well_formed());
            check_stage_nesting(root, None)?;
        }
    }
}

// -- 4. rollback never un-counts ---------------------------------------------

proptest! {
    #[test]
    fn savepoint_rollback_never_uncounts(class in any::<u8>(), seed in any::<u64>()) {
        let pc = ProgramClass::ALL[class as usize % ProgramClass::ALL.len()];
        let program = generate_program(pc, seed);
        let mut db = named::company_db(3, 2, 6);
        let inputs = Inputs::new().with_terminal(&["RETRIEVE"]);

        let before = dbpc::obs::local_snapshot();
        let sp = db.begin_savepoint();
        // The run mutates (or fails, or is a pure retrieval) — either way
        // its access work is absorbed into the ambient sheet.
        let _ = run_host(&mut db, &program, inputs);
        db.rollback_to(sp);
        let after = dbpc::obs::local_snapshot();

        prop_assert!(after.monotone_since(&before), "rollback un-counted a metric");
        let delta = after.since(&before);
        // The outer savepoint was begun and rolled back; the engine's inner
        // savepoint resolved too, so the ledger balances.
        prop_assert!(delta.counter(SAVEPOINTS_ROLLED_BACK) >= 1);
        prop_assert_eq!(
            delta.counter(SAVEPOINTS_BEGUN),
            delta.counter(SAVEPOINTS_COMMITTED) + delta.counter(SAVEPOINTS_ROLLED_BACK),
            "savepoint ledger out of balance"
        );
    }
}

// -- 5. failed runs keep their access counts -------------------------------

/// The four `storage.*` access counters `run` recorded, with its result.
fn access_of(run: impl FnOnce() -> RunResult<Trace>) -> (RunResult<Trace>, [u64; 4]) {
    let before = dbpc::obs::local_snapshot();
    let result = run();
    let delta = dbpc::obs::local_snapshot().since(&before);
    let counts =
        [ROWS_SCANNED, INDEX_PROBES, INDEX_HITS, PREORDER_REBUILDS].map(|n| delta.counter(n));
    (result, counts)
}

/// Runs the failing program (`run(db, false)`), which must fail with
/// `error`, then the good one (`run(db, true)`) twice. Returns the failed
/// run's counters. The first good run's counters must equal the second's:
/// each run resets the engine's counters at its start, so work a failed
/// run did cannot inflate the run after it.
fn failed_run_counts<D>(
    db: &mut D,
    error: RunError,
    mut run: impl FnMut(&mut D, bool) -> RunResult<Trace>,
) -> [u64; 4] {
    let (result, failed) = access_of(|| run(db, false));
    assert_eq!(result.unwrap_err(), error);
    let (result, after_failure) = access_of(|| run(db, true));
    result.unwrap();
    let (result, after_success) = access_of(|| run(db, true));
    result.unwrap();
    assert_eq!(
        after_failure, after_success,
        "the failed run's work leaked into the next run's counts"
    );
    failed
}

#[test]
fn failed_sequel_run_keeps_its_scan_counts() {
    let mut db = named::personnel_relational_db(3, 4).unwrap();
    let bad = parse_sequel_program(
        "SEQUEL PROGRAM F;
SELECT ENAME
FROM EMP
WHERE AGE > 30;
SELECT ENAME
FROM NOPE;
END PROGRAM;",
    )
    .unwrap();
    let good = parse_sequel_program(
        "SEQUEL PROGRAM G;
SELECT ENAME
FROM EMP
WHERE AGE > 30;
END PROGRAM;",
    )
    .unwrap();
    let [rows_scanned, ..] = failed_run_counts(
        &mut db,
        RunError::Db(DbError::unknown("table", "NOPE")),
        |db, ok| run_sequel(db, if ok { &good } else { &bad }, Inputs::new()),
    );
    assert_eq!(rows_scanned, 12, "the full scan of EMP before the failure");
}

#[test]
fn failed_dbtg_run_keeps_its_probe_counts() {
    let mut db = named::personnel_network_db(3, 4).unwrap();
    let bad = parse_dbtg(
        "DBTG PROGRAM F.
  MOVE 'E0001' TO E# IN EMP.
  FIND ANY EMP USING E#.
  GO TO NOWHERE.
END PROGRAM.",
    )
    .unwrap();
    let good = parse_dbtg(
        "DBTG PROGRAM G.
  MOVE 'E0001' TO E# IN EMP.
  FIND ANY EMP USING E#.
  STOP.
END PROGRAM.",
    )
    .unwrap();
    let [_, index_probes, index_hits, _] = failed_run_counts(
        &mut db,
        RunError::NoSuchLabel("NOWHERE".into()),
        |db, ok| run_dbtg(db, if ok { &good } else { &bad }, Inputs::new()),
    );
    assert!(index_probes > 0 && index_hits > 0);
}

#[test]
fn failed_dli_run_keeps_its_preorder_rebuild() {
    let mut db = named::company_hier_db(2, 2, 4).unwrap();
    let bad = parse_dli(
        "DLI PROGRAM F.
LOOP.
  GN EMP.
  IF STATUS GB GO TO NOWHERE.
  GO TO LOOP.
END PROGRAM.",
    )
    .unwrap();
    let good = parse_dli(
        "DLI PROGRAM G.
LOOP.
  GN EMP.
  IF STATUS GB GO TO DONE.
  GO TO LOOP.
DONE.
  STOP.
END PROGRAM.",
    )
    .unwrap();
    let [.., preorder_rebuilds] = failed_run_counts(
        &mut db,
        RunError::NoSuchLabel("NOWHERE".into()),
        |db, ok| run_dli(db, if ok { &good } else { &bad }, Inputs::new()),
    );
    assert_eq!(preorder_rebuilds, 1, "the GN walk built the preorder once");
}

#[test]
fn failed_host_run_keeps_its_scan_counts() {
    let mut db = named::company_db(2, 2, 4);
    let program = parse_program(
        "PROGRAM R;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  FOR EACH R IN E DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
    )
    .unwrap();
    // The failing run has fuel for the FIND, not for the loop.
    let [rows_scanned, ..] = failed_run_counts(&mut db, RunError::StepLimit, |db, ok| {
        run_host_with_fuel(db, &program, Inputs::new(), if ok { 1_000 } else { 2 })
    });
    assert!(rows_scanned > 0);
}
