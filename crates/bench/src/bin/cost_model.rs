//! Experiment E9: the conversion cost model.
//!
//! The paper opens with the GAO's 1977 numbers: "$450 million … spent
//! within the Federal Government on conversion during fiscal 1977 and …
//! $100 million of this expenditure could have been saved" (≈22 %, across
//! conversions of *all* kinds, with 1970s tooling). This binary applies a
//! simple analyst-hours model to the measured success rates to show what a
//! database-program conversion system of the paper's design would save.
//!
//! ```sh
//! cargo run -p dbpc-bench --bin cost_model --release [samples] [seed]
//! ```

use dbpc_corpus::harness::{cost_model, success_rate_study_interactive, CostParams, HOST_THREADS};

fn main() {
    let mut args = std::env::args().skip(1);
    let samples: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1979);

    // Interactive mode: the §2.1.1 workflow where "the conversion is
    // completed by hand" for flagged programs.
    let study = success_rate_study_interactive(samples, seed);
    let params = CostParams::default();
    println!("== E9: conversion cost model ==\n");
    println!(
        "effort parameters: manual {}h / review {}h / completion {}h per program\n",
        params.manual_hours, params.review_hours, params.completion_hours
    );
    let report = cost_model(&study, params);
    println!("{report}");
    println!(
        "(matrix computed on {} thread(s); DBPC_THREADS to override)\n",
        study.report.metrics.gauge(HOST_THREADS)
    );

    // Sensitivity: how do savings move with review cost?
    println!("sensitivity (review hours -> savings):");
    for review in [0.5, 1.0, 2.0, 4.0, 8.0] {
        let r = cost_model(
            &study,
            CostParams {
                review_hours: review,
                ..params
            },
        );
        println!(
            "  review {review:>4.1}h  ->  {:>5.1}%",
            100.0 * r.savings_fraction()
        );
    }
}
