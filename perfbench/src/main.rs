//! `dbpc-perfbench`: one repetition of one benchmark workload.
//!
//! ```sh
//! dbpc-perfbench --workload <name> --seed <n> [--trace <0|1>] [--trace-out <file>]
//! ```
//!
//! Each repetition runs in a fresh process, so the process-wide analysis,
//! generation, and ground-truth memos start cold, as they do in a user's
//! run. The process prints `READY` once its set-up is done (the
//! orchestrator times set-up up to that line), then does the workload's
//! measured work, checks the outputs, and prints one `RESULT {json}` line
//! (see [`report::Rep::to_json`]). `--trace 1` turns on the benchmark's own
//! spans and writes them to `--trace-out` when the work is done. The
//! program's own observability recording stays at its shipped default
//! either way.
//!
//! `perfbench/run.py` is the entry point that builds this binary, runs
//! repetitions for a fixed time, and prints the aggregate.

mod report;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut traced, mut trace_out) = (None, None, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--trace" => traced = value == "1",
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace: traced,
        trace_out,
    })
}

/// Signal the end of set-up to the orchestrator.
pub fn ready() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "READY");
    let _ = out.flush();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dbpc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(run) = workloads::find(&args.workload) else {
        eprintln!("dbpc-perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    trace::enable(args.trace);
    let mut rep = report::Rep::new();
    run(args.seed, &mut rep);
    trace::enable(false);
    let spans = trace::take();
    if args.trace {
        rep.put(
            "trace.unattributed_pct",
            trace::unattributed_pct(&spans),
            "%",
        );
        for (name, ns) in trace::self_time_by_name(&spans) {
            rep.put(format!("trace.self_ms.{name}"), ns as f64 / 1e6, "ms");
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = trace::write(path, &spans) {
                eprintln!("dbpc-perfbench: cannot write {}: {e}", path.display());
            }
        }
    }
    println!("RESULT {}", rep.to_json());
    for p in &rep.problems {
        eprintln!("dbpc-perfbench: check failed: {p}");
    }
    if rep.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
