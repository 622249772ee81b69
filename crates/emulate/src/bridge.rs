//! Bridge programs with differential files (§2.1.2).
//!
//! "The source application program's access requirements are supported by
//! dynamically reconstructing from the target database that portion of the
//! source database needed … The source program operates on the
//! reconstructed database to effect the same results that would occur in
//! the original database. A reverse mapping is required to reflect updates
//! and each simulated source database segment that has changed must be
//! retranslated along with any new database members. Differential file
//! techniques can be used to ease this process."
//!
//! Concretely:
//!
//! 1. the **reconstruction** applies the restructuring's inverse operators
//!    (Housel's invertibility requirement) to the target database;
//! 2. the unmodified source program runs against the reconstruction;
//! 3. write-back is either **full retranslation** (re-apply the forward
//!    restructuring to the whole mutated reconstruction) or a
//!    **differential file**: a record-level change log computed by diffing
//!    the reconstruction before/after the run, replayed onto the target
//!    through the DML-emulation layer. Differential replay costs time
//!    proportional to the number of changes — the Severance–Lohman
//!    economics (paper ref 9) — while full retranslation costs time
//!    proportional to database size.

use crate::emulation::Emulator;
use dbpc_datamodel::network::NetworkSchema;
use dbpc_datamodel::value::Value;
use dbpc_dml::host::Program;
use dbpc_engine::host_exec::{run_host, NetworkOps};
use dbpc_engine::{Inputs, RunError, Trace};
use dbpc_restructure::Restructuring;
use dbpc_storage::{DbError, DbResult, NetworkDb, RecordId, SYSTEM_OWNER};
use std::collections::BTreeSet;

/// How bridge updates are propagated back to the target database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteBack {
    /// Retranslate the whole mutated reconstruction (cost ∝ database size).
    FullRetranslate,
    /// Replay the differential file through the emulation layer
    /// (cost ∝ number of changes; falls back to full retranslation when a
    /// change cannot be located unambiguously).
    Differential,
}

/// Stored-field snapshot used to identify records logically across the
/// bridge boundary (1979 differential files identified records by database
/// key; the reconstruction has fresh keys, so logical identification is
/// used instead).
pub type Snapshot = Vec<Value>;

/// One entry of the differential file.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffOp {
    Store {
        rtype: String,
        values: Vec<(String, Value)>,
        /// Set name → (owner record type, owner snapshot after the run).
        connects: Vec<(String, String, Snapshot)>,
    },
    Modify {
        rtype: String,
        before: Snapshot,
        assigns: Vec<(String, Value)>,
    },
    Erase {
        rtype: String,
        before: Snapshot,
    },
}

/// The record-level change log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DifferentialFile {
    pub ops: Vec<DiffOp>,
}

impl DifferentialFile {
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }
}

/// Result of a bridged run.
#[derive(Debug)]
pub struct BridgeRun {
    pub trace: Trace,
    /// The updated target database.
    pub target: NetworkDb,
    /// The differential file computed (also under FullRetranslate, for
    /// inspection).
    pub diff: DifferentialFile,
    /// Whether differential replay fell back to full retranslation.
    pub fell_back: bool,
}

/// Run an unmodified source program via the bridge strategy.
pub fn run_bridged(
    target: NetworkDb,
    source_schema: &NetworkSchema,
    restructuring: &Restructuring,
    program: &Program,
    inputs: Inputs,
    writeback: WriteBack,
) -> Result<BridgeRun, RunError> {
    let inverse = restructuring.inverse().ok_or_else(|| {
        RunError::Db(DbError::constraint(
            "bridge requires an invertible restructuring (Housel's condition)",
        ))
    })?;
    // 1. Reconstruct the source-form database. The inverse operators
    //    reproduce the source schema up to field order (a demoted field is
    //    re-appended), so the check is structural.
    let recon_before = inverse.translate(&target).map_err(RunError::Db)?;
    if !schemas_structurally_equal(recon_before.schema(), source_schema) {
        return Err(RunError::Db(DbError::constraint(
            "inverse restructuring does not reproduce the source schema",
        )));
    }
    let recon_schema = recon_before.schema().clone();
    // 2. Run the unmodified program on the reconstruction.
    let mut recon = recon_before.clone();
    let trace = run_host(&mut recon, program, inputs)?;
    // 3. Compute the differential file.
    let diff = compute_diff(&recon_before, &recon).map_err(RunError::Db)?;
    // 4. Write back.
    let (new_target, fell_back) = match writeback {
        WriteBack::FullRetranslate => (
            restructuring.translate(&recon).map_err(RunError::Db)?,
            false,
        ),
        WriteBack::Differential => {
            if diff.is_empty() {
                (target, false)
            } else {
                match replay_diff(
                    &diff,
                    target.clone(),
                    &recon_schema,
                    source_schema,
                    restructuring,
                ) {
                    Ok(t) => (t, false),
                    Err(_) => {
                        // Ambiguous logical identification: retranslate.
                        (restructuring.translate(&recon).map_err(RunError::Db)?, true)
                    }
                }
            }
        }
    };
    Ok(BridgeRun {
        trace,
        target: new_target,
        diff,
        fell_back,
    })
}

/// Structural schema equality: same records (fields compared as sets),
/// same sets, same constraints.
fn schemas_structurally_equal(a: &NetworkSchema, b: &NetworkSchema) -> bool {
    if a.records.len() != b.records.len()
        || a.sets.len() != b.sets.len()
        || a.constraints.len() != b.constraints.len()
    {
        return false;
    }
    for ra in &a.records {
        let Some(rb) = b.record(&ra.name) else {
            return false;
        };
        if ra.fields.len() != rb.fields.len() {
            return false;
        }
        for f in &ra.fields {
            if rb.field(&f.name) != Some(f) {
                return false;
            }
        }
    }
    a.sets.iter().all(|s| b.set(&s.name) == Some(s))
        && a.constraints.iter().all(|c| b.constraints.contains(c))
}

/// Stored (non-virtual) field values of a record.
fn snapshot(db: &NetworkDb, id: RecordId) -> DbResult<Snapshot> {
    let rec = db.get(id)?;
    let rt = db
        .schema()
        .record(&rec.rtype)
        .ok_or_else(|| DbError::unknown("record", &rec.rtype))?;
    Ok(rt
        .stored_field_indices()
        .into_iter()
        .map(|i| rec.values[i].clone())
        .collect())
}

/// Diff two states of the same database instance (ids are stable across
/// in-place mutation).
pub fn compute_diff(before: &NetworkDb, after: &NetworkDb) -> DbResult<DifferentialFile> {
    let mut ops = Vec::new();
    let schema = before.schema();
    // Collect id sets per type.
    for r in &schema.records {
        let before_ids: BTreeSet<RecordId> = before.records_of_type(&r.name).into_iter().collect();
        let after_ids: BTreeSet<RecordId> = after.records_of_type(&r.name).into_iter().collect();
        // Erasures (children of cascades included naturally).
        for id in before_ids.difference(&after_ids) {
            ops.push(DiffOp::Erase {
                rtype: r.name.clone(),
                before: snapshot(before, *id)?,
            });
        }
        // Stores.
        for id in after_ids.difference(&before_ids) {
            let mut connects = Vec::new();
            for s in schema.sets_with_member(&r.name) {
                if s.is_system() {
                    continue;
                }
                if let Some(owner) = after.owner_in(&s.name, *id)? {
                    if owner != SYSTEM_OWNER {
                        let owner_type = after.get(owner)?.rtype.clone();
                        connects.push((s.name.clone(), owner_type, snapshot(after, owner)?));
                    }
                }
            }
            let rec = after.get(*id)?;
            let values: Vec<(String, Value)> = r
                .stored_field_indices()
                .into_iter()
                .map(|i| (r.fields[i].name.clone(), rec.values[i].clone()))
                .collect();
            ops.push(DiffOp::Store {
                rtype: r.name.clone(),
                values,
                connects,
            });
        }
        // Modifications.
        for id in before_ids.intersection(&after_ids) {
            let b = snapshot(before, *id)?;
            let a = snapshot(after, *id)?;
            if a != b {
                let assigns: Vec<(String, Value)> = r
                    .stored_field_indices()
                    .into_iter()
                    .enumerate()
                    .filter(|(k, _)| !a[*k].loose_eq(&b[*k]) || a[*k].is_null() != b[*k].is_null())
                    .map(|(k, i)| (r.fields[i].name.clone(), a[k].clone()))
                    .collect();
                if !assigns.is_empty() {
                    ops.push(DiffOp::Modify {
                        rtype: r.name.clone(),
                        before: b,
                        assigns,
                    });
                }
            }
        }
    }
    Ok(DifferentialFile { ops })
}

/// Locate the unique record of `rtype` whose stored values equal `snap`,
/// through the emulator's source-schema view.
fn locate(
    emu: &mut Emulator,
    schema: &NetworkSchema,
    rtype: &str,
    snap: &Snapshot,
) -> DbResult<RecordId> {
    let rt = schema
        .record(rtype)
        .ok_or_else(|| DbError::unknown("record", rtype))?;
    let stored: Vec<&str> = rt
        .stored_field_indices()
        .into_iter()
        .map(|i| rt.fields[i].name.as_str())
        .collect();
    let mut hit = None;
    for id in emu.records_of_type(rtype)? {
        let mut matches = true;
        for (k, f) in stored.iter().enumerate() {
            if !emu.field_value(id, f)?.loose_eq(&snap[k]) {
                matches = false;
                break;
            }
        }
        if matches {
            if hit.is_some() {
                return Err(DbError::constraint(format!(
                    "ambiguous logical identification of {rtype} in differential replay"
                )));
            }
            hit = Some(id);
        }
    }
    hit.ok_or_else(|| DbError::NotFound(format!("{rtype} for differential replay")))
}

/// Replay the differential file onto the target through the emulation
/// layer.
fn replay_diff(
    diff: &DifferentialFile,
    target: NetworkDb,
    recon_schema: &NetworkSchema,
    source_schema: &NetworkSchema,
    restructuring: &Restructuring,
) -> DbResult<NetworkDb> {
    let mut emu = Emulator::over(target, source_schema, restructuring)?;
    for op in &diff.ops {
        match op {
            DiffOp::Erase { rtype, before } => {
                // A cascade may already have removed it.
                match locate(&mut emu, recon_schema, rtype, before) {
                    Ok(id) => emu.erase(id, true)?,
                    Err(DbError::NotFound(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            DiffOp::Modify {
                rtype,
                before,
                assigns,
            } => {
                let id = locate(&mut emu, recon_schema, rtype, before)?;
                let aref: Vec<(&str, Value)> = assigns
                    .iter()
                    .map(|(f, v)| (f.as_str(), v.clone()))
                    .collect();
                emu.modify(id, &aref)?;
            }
            DiffOp::Store {
                rtype,
                values,
                connects,
            } => {
                let mut conn_ids = Vec::new();
                for (set, owner_type, owner_snap) in connects {
                    let owner = locate(&mut emu, recon_schema, owner_type, owner_snap)?;
                    conn_ids.push((set.as_str(), owner));
                }
                let vref: Vec<(&str, Value)> = values
                    .iter()
                    .map(|(f, v)| (f.as_str(), v.clone()))
                    .collect();
                emu.store(rtype, &vref, &conn_ids)?;
            }
        }
    }
    Ok(emu.into_target())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::network::{FieldDef, RecordTypeDef, SetDef};
    use dbpc_datamodel::types::FieldType;
    use dbpc_dml::host::parse_program;
    use dbpc_restructure::Transform;

    fn company_schema() -> NetworkSchema {
        NetworkSchema::new("COMPANY-NAME")
            .with_record(RecordTypeDef::new(
                "DIV",
                vec![
                    FieldDef::new("DIV-NAME", FieldType::Char(20)),
                    FieldDef::new("DIV-LOC", FieldType::Char(10)),
                ],
            ))
            .with_record(RecordTypeDef::new(
                "EMP",
                vec![
                    FieldDef::new("EMP-NAME", FieldType::Char(25)),
                    FieldDef::new("DEPT-NAME", FieldType::Char(5)),
                    FieldDef::new("AGE", FieldType::Int(2)),
                ],
            ))
            .with_set(SetDef::system("ALL-DIV", "DIV", vec!["DIV-NAME"]))
            .with_set(SetDef::owned("DIV-EMP", "DIV", "EMP", vec!["EMP-NAME"]))
    }

    fn company_db() -> NetworkDb {
        let mut db = NetworkDb::new(company_schema()).unwrap();
        let mach = db
            .store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str("MACHINERY")),
                    ("DIV-LOC", Value::str("DETROIT")),
                ],
                &[],
            )
            .unwrap();
        for (n, d, a) in [("JONES", "SALES", 34), ("ADAMS", "SALES", 28)] {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(n)),
                    ("DEPT-NAME", Value::str(d)),
                    ("AGE", Value::Int(a)),
                ],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        }
        db
    }

    fn fig_4_4() -> Restructuring {
        Restructuring::single(Transform::PromoteFieldToOwner {
            record: "EMP".into(),
            field: "DEPT-NAME".into(),
            via_set: "DIV-EMP".into(),
            new_record: "DEPT".into(),
            upper_set: "DIV-DEPT".into(),
            lower_set: "DEPT-EMP".into(),
        })
    }

    const READ_PROGRAM: &str = "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
  FOR EACH R IN E DO
    PRINT R.EMP-NAME, R.DEPT-NAME;
  END FOR;
END PROGRAM;";

    #[test]
    fn read_only_bridge_preserves_trace_and_skips_writeback() {
        let mut source_db = company_db();
        let target = fig_4_4().translate(&source_db).unwrap();
        let p = parse_program(READ_PROGRAM).unwrap();
        let expected = run_host(&mut source_db, &p, Inputs::new()).unwrap();
        let run = run_bridged(
            target,
            &company_schema(),
            &fig_4_4(),
            &p,
            Inputs::new(),
            WriteBack::Differential,
        )
        .unwrap();
        assert_eq!(run.trace, expected);
        assert!(run.diff.is_empty());
        assert!(!run.fell_back);
        assert_eq!(run.trace.terminal_lines(), vec!["JONES SALES"]);
    }

    #[test]
    fn update_bridge_differential_equals_full_retranslation() {
        let p = parse_program(
            "PROGRAM P;
  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'));
  STORE EMP (EMP-NAME := 'NEWMAN', DEPT-NAME := 'ENG', AGE := 21) CONNECT TO DIV-EMP OF D;
  FIND E := FIND(EMP: D, DIV-EMP, EMP(EMP-NAME = 'ADAMS'));
  MODIFY E SET (AGE := 29);
  FIND OLD := FIND(EMP: D, DIV-EMP, EMP(EMP-NAME = 'JONES'));
  DELETE OLD;
END PROGRAM;",
        )
        .unwrap();
        let target0 = fig_4_4().translate(&company_db()).unwrap();

        let full = run_bridged(
            target0.clone(),
            &company_schema(),
            &fig_4_4(),
            &p,
            Inputs::new(),
            WriteBack::FullRetranslate,
        )
        .unwrap();
        let diff = run_bridged(
            target0,
            &company_schema(),
            &fig_4_4(),
            &p,
            Inputs::new(),
            WriteBack::Differential,
        )
        .unwrap();
        assert!(!diff.fell_back);
        assert_eq!(diff.diff.len(), 3); // store + modify + erase
                                        // Both write-back strategies leave behaviorally identical targets:
                                        // compare the source-level view of each.
        let view = |db: NetworkDb| -> Vec<String> {
            let mut emu = Emulator::over(db, &company_schema(), &fig_4_4()).unwrap();
            let q = parse_program(
                "PROGRAM V;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP);
  FOR EACH R IN E DO
    PRINT R.EMP-NAME, R.DEPT-NAME, R.AGE;
  END FOR;
END PROGRAM;",
            )
            .unwrap();
            run_host(&mut emu, &q, Inputs::new())
                .unwrap()
                .terminal_lines()
                .iter()
                .map(|s| s.to_string())
                .collect()
        };
        assert_eq!(view(full.target), view(diff.target));
    }

    #[test]
    fn diff_captures_changes_precisely() {
        let before = company_db();
        let mut after = before.clone();
        let mach = after.records_of_type("DIV")[0];
        after
            .store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str("X")),
                    ("DEPT-NAME", Value::str("ENG")),
                    ("AGE", Value::Int(20)),
                ],
                &[("DIV-EMP", mach)],
            )
            .unwrap();
        let jones = after
            .records_of_type("EMP")
            .into_iter()
            .find(|&e| after.field_value(e, "EMP-NAME").unwrap() == Value::str("JONES"))
            .unwrap();
        after.modify(jones, &[("AGE", Value::Int(35))]).unwrap();
        let d = compute_diff(&before, &after).unwrap();
        assert_eq!(d.len(), 2);
        assert!(d.ops.iter().any(|o| matches!(o, DiffOp::Store { .. })));
        assert!(d
            .ops
            .iter()
            .any(|o| matches!(o, DiffOp::Modify { assigns, .. } if assigns == &[("AGE".to_string(), Value::Int(35))])));
    }

    #[test]
    fn non_invertible_restructuring_rejected() {
        let r = Restructuring::single(Transform::DropField {
            record: "EMP".into(),
            field: "AGE".into(),
        });
        let target = r.translate(&company_db()).unwrap();
        let p = parse_program(READ_PROGRAM).unwrap();
        assert!(run_bridged(
            target,
            &company_schema(),
            &r,
            &p,
            Inputs::new(),
            WriteBack::Differential,
        )
        .is_err());
    }
}
