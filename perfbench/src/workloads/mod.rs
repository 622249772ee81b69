//! The four workloads. Each takes the seed and fills a [`Rep`]; each calls
//! [`crate::ready`] when its set-up is done and wraps its measured work in
//! a root `rep` span whose children are the calls into the layers.

use crate::report::Rep;

mod convert_study;
mod paged_scale;
mod service_common;
mod service_mixed;
mod service_recovery;

pub type Workload = fn(u64, &mut Rep);

/// Every workload, by the name `BENCHMARK.json` gives it.
pub const ALL: &[(&str, Workload)] = &[
    ("convert_study", convert_study::run),
    ("service_mixed", service_mixed::run),
    ("paged_scale", paged_scale::run),
    ("service_recovery", service_recovery::run),
];

pub fn find(name: &str) -> Option<Workload> {
    ALL.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
}
