//! # dbpc-storage
//!
//! In-memory storage engines for the three data models of the paper:
//!
//! * [`NetworkDb`] — owner-coupled-set databases with ordered set
//!   occurrences, key-directed insertion, `AUTOMATIC`/`MANUAL` and
//!   `MANDATORY`/`OPTIONAL` semantics, virtual-field resolution, and
//!   enforcement of the §3.1 declarative constraint catalogue;
//! * [`RelationalDb`] — tables with primary-key uniqueness (the one
//!   constraint the paper notes the relational model enforces) and
//!   optional foreign-key checking;
//! * [`HierDb`] — IMS-like forests of segment instances with hierarchic
//!   (preorder) traversal order, the substrate for DL/I programs and the
//!   Mehl & Wang reordering experiments.
//!
//! Design rule inherited from the paper's equivalence criterion (§1.1):
//! **all iteration orders are defined and deterministic.** Converted and
//! original programs are compared by their I/O traces, so the engines never
//! let a hash-map ordering reach an observable result.

pub mod disk;
pub mod error;
pub mod hier_db;
pub mod keys;
pub mod locks;
pub mod network_db;
pub mod pool;
pub mod relational_db;
pub mod statcat;
pub mod stats;
pub mod txn;

pub use disk::{
    BufferMgr, DiskError, DiskFault, DiskFaultPlan, DiskResult, DurableNetworkDb, DurableOptions,
    FileMgr, LogMgr, SyncPolicy, TempDir,
};
pub use error::{DbError, DbResult, StatusCode};
pub use hier_db::{HierDb, SegmentInstance};
pub use keys::KeyTuple;
pub use locks::{ConcurrencyMgr, LockError, LockKind, LockRes, LockTable, LockUnit, WaitStats};
pub use network_db::{NetworkDb, RecordId, StoredRecord, SYSTEM_OWNER};
pub use relational_db::{RelationalDb, RowId};
pub use statcat::{IndexStats, SetStats, StatCatalog, TableStats, TypeStats};
pub use stats::AccessStats;
pub use txn::Savepoint;
