//! The atomic-run wrapper every executor shares.

use crate::error::RunResult;
use crate::host_exec::NetworkOps;
use crate::trace::Trace;
use dbpc_storage::{AccessStats, HierDb, RelationalDb, Savepoint};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A store a program runs against atomically.
pub(crate) trait RunStore {
    /// The layer's access counters, if it keeps any.
    fn stats(&self) -> Option<&AccessStats>;
    fn begin(&mut self) -> Savepoint;
    fn commit(&mut self, sp: Savepoint);
    fn rollback(&mut self, sp: Savepoint);
}

impl RunStore for RelationalDb {
    fn stats(&self) -> Option<&AccessStats> {
        Some(self.access_stats())
    }
    fn begin(&mut self) -> Savepoint {
        self.begin_savepoint()
    }
    fn commit(&mut self, sp: Savepoint) {
        RelationalDb::commit(self, sp);
    }
    fn rollback(&mut self, sp: Savepoint) {
        self.rollback_to(sp);
    }
}

impl RunStore for HierDb {
    fn stats(&self) -> Option<&AccessStats> {
        Some(self.access_stats())
    }
    fn begin(&mut self) -> Savepoint {
        self.begin_savepoint()
    }
    fn commit(&mut self, sp: Savepoint) {
        HierDb::commit(self, sp);
    }
    fn rollback(&mut self, sp: Savepoint) {
        self.rollback_to(sp);
    }
}

/// Every owner-coupled-set layer: `NetworkDb` directly, and the emulation
/// and bridge layers over a restructured database.
impl<D: NetworkOps> RunStore for D {
    fn stats(&self) -> Option<&AccessStats> {
        self.access_stats()
    }
    fn begin(&mut self) -> Savepoint {
        self.begin_savepoint()
    }
    fn commit(&mut self, sp: Savepoint) {
        self.commit_savepoint(sp);
    }
    fn rollback(&mut self, sp: Savepoint) {
        self.rollback_to(sp);
    }
}

/// Run `run` against `db` under the obs span `name`, inside a savepoint:
/// commit when the program completes, roll back on a typed error, fuel
/// exhaustion, or a panic (re-raised after cleanup). The layer's access
/// counters are reset once at run start and absorbed into the ambient
/// sheet once on every exit — observability is append-only even when the
/// savepoint rolls the data back.
pub(crate) fn run_atomic<S: RunStore>(
    name: &'static str,
    db: &mut S,
    run: impl FnOnce(&mut S) -> RunResult<Trace>,
) -> RunResult<Trace> {
    dbpc_obs::span(name, || {
        if let Some(stats) = db.stats() {
            stats.reset();
        }
        let sp = db.begin();
        let db_ref = &mut *db;
        let outcome = catch_unwind(AssertUnwindSafe(move || run(db_ref)));
        match outcome {
            Ok(Ok(trace)) => {
                db.commit(sp);
                absorb(db);
                Ok(trace)
            }
            Ok(Err(e)) => {
                absorb(db);
                db.rollback(sp);
                Err(e)
            }
            Err(payload) => {
                absorb(db);
                db.rollback(sp);
                resume_unwind(payload)
            }
        }
    })
}

/// A layer without counters still records the four `storage.*` names, at
/// zero, so every run contributes the same metric keys.
fn absorb<S: RunStore>(db: &S) {
    match db.stats() {
        Some(stats) => stats.absorb_into_obs(),
        None => AccessStats::default().absorb_into_obs(),
    }
}
