//! # dbpc — Database Program Conversion framework
//!
//! A Rust implementation of *Database Program Conversion: A Framework for
//! Research* (CODASYL Systems Committee, 1979). See `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for the paper-artifact index.
//!
//! The paper's problem, end to end:
//!
//! ```
//! use dbpc::convert::{Supervisor, report::AutoAnalyst};
//! use dbpc::convert::equivalence::{check_equivalence, EquivalenceLevel};
//! use dbpc::corpus::named;
//! use dbpc::dml::host::parse_program;
//! use dbpc::engine::Inputs;
//!
//! // The Figure 4.2/4.3 schema, some data, and a database program.
//! let schema = named::company_schema();
//! let source_db = named::company_db(2, 3, 8);
//! let program = parse_program(
//!     "PROGRAM REPORT;
//!   FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30));
//!   FOR EACH R IN E DO
//!     PRINT R.EMP-NAME, R.AGE;
//!   END FOR;
//! END PROGRAM;",
//! )?;
//!
//! // The Figure 4.2 → 4.4 restructuring: convert program and data.
//! let restructuring = named::fig_4_4_restructuring();
//! let report = Supervisor::new()
//!     .convert(&schema, &restructuring, &program, &mut AutoAnalyst)?;
//! assert!(report.succeeded());
//! let target_db = restructuring.translate(&source_db)?;
//!
//! // The §1.1 acceptance test: the converted program runs equivalently.
//! let eq = check_equivalence(
//!     source_db,
//!     &program,
//!     target_db,
//!     report.program.as_ref().unwrap(),
//!     &Inputs::new(),
//!     &report.warnings,
//! )?;
//! assert_eq!(eq.level, EquivalenceLevel::Strict);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use dbpc_analyzer as analyzer;
pub use dbpc_convert as convert;
pub use dbpc_corpus as corpus;
pub use dbpc_datamodel as datamodel;
pub use dbpc_dml as dml;
pub use dbpc_emulate as emulate;
pub use dbpc_engine as engine;
pub use dbpc_obs as obs;
pub use dbpc_restructure as restructure;
pub use dbpc_storage as storage;
