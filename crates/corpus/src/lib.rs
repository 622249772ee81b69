//! # dbpc-corpus
//!
//! Named databases from the paper, seeded random generators, and the study
//! harnesses behind the quantitative experiments.
//!
//! * [`named`] — the paper's own databases at configurable scale: the
//!   **school** database of Figure 3.1 (relational and CODASYL forms), the
//!   **company** database of Figures 4.2/4.3, and the **personnel**
//!   database of §4.1 (DEPT / EMP-DEPT / EMP).
//! * [`gen`] — seeded random program generation over the company schema,
//!   stratified by the feature classes that decide convertibility
//!   (filters, sorted/unsorted reports, updates, promoted-field
//!   dependence, procedural checks, run-time-variable verbs).
//! * [`harness`] — the success-rate study (experiment E2: what fraction of
//!   programs converts fully automatically, per transform class × feature
//!   class — the paper's §2.1.1 baseline is the 65–70 % band of 1970s
//!   computer-aided converters) and the conversion cost model
//!   (experiment E9: the GAO savings figure of §1).
//!
//! The study harness runs on `dbpc_storage::pool`, the deterministic scoped
//! thread-pool: a fixed strided work partition plus index-ordered
//! reassembly makes every study result byte-identical at any thread count
//! (`DBPC_THREADS` selects the width).

pub mod gen;
pub mod harness;
pub mod named;
