//! What the two service workloads share: the seeded job mix over the
//! Figure 4.4 company context, and the failure rule for a job outcome.

use dbpc_convert::report::Verdict;
use dbpc_convert::service::{JobOutcome, ServiceBuilder, ServiceConfig};
use dbpc_corpus::gen::{generate_program, ProgramClass};
use dbpc_corpus::named;
use dbpc_datamodel::error::PipelineError;
use dbpc_dml::host::Program;
use dbpc_engine::Inputs;

use crate::stats::SplitMix;

/// Distinct programs per class in a job mix: jobs repeat programs, as
/// sustained traffic does, which is what the ground-truth memo amortizes.
const PROGRAMS_PER_CLASS: usize = 128;

const READ: [ProgramClass; 4] = [
    ProgramClass::PlainReport,
    ProgramClass::SortedReport,
    ProgramClass::AggregateOnly,
    ProgramClass::VirtualRef,
];
const MUTATE: [ProgramClass; 4] = [
    ProgramClass::StoreEmp,
    ProgramClass::ModifyAge,
    ProgramClass::ModifyDept,
    ProgramClass::DeleteEmp,
];

/// One job: the program, its fault/identity key, and whether it mutates.
pub struct Job {
    pub program: Program,
    pub key: u64,
    pub write: bool,
}

/// `n` jobs, `write_pct` percent of them mutating, drawn from a seeded
/// pool of distinct programs.
pub fn jobs(seed: u64, n: usize, write_pct: u64) -> Vec<Job> {
    let mut rng = SplitMix::new(seed);
    let pool = |classes: &[ProgramClass; 4], rng: &mut SplitMix| -> Vec<Program> {
        classes
            .iter()
            .flat_map(|&c| {
                (0..PROGRAMS_PER_CLASS)
                    .map(|_| generate_program(c, rng.next_u64()))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let reads = pool(&READ, &mut rng);
    let writes = pool(&MUTATE, &mut rng);
    (0..n)
        .map(|i| {
            let write = rng.below(100) < write_pct;
            let from = if write { &writes } else { &reads };
            Job {
                program: from[rng.below(from.len() as u64) as usize].clone(),
                key: seed.wrapping_add(i as u64),
                write,
            }
        })
        .collect()
}

/// A service builder over `config` with the company context registered.
pub fn builder(config: ServiceConfig) -> ServiceBuilder {
    let mut b = ServiceBuilder::new(config);
    b.register_context(
        &named::company_schema(),
        &named::fig_4_4_restructuring(),
        named::company_db(2, 2, 6),
        Inputs::new().with_terminal(&["RETRIEVE"]),
    )
    .expect("the company context registers");
    b
}

/// A job failed when it was poisoned, refused or shed under overload, or
/// lost a lock wait — whatever verdict it ended with.
pub fn failed(o: &JobOutcome) -> bool {
    o.report.verdict == Verdict::Poisoned
        || o.report.fallbacks.iter().any(|f| {
            matches!(
                f.error,
                PipelineError::LockTimeout { .. }
                    | PipelineError::Overloaded { .. }
                    | PipelineError::DeadlineExceeded { .. }
                    | PipelineError::CircuitOpen { .. }
            )
        })
}
