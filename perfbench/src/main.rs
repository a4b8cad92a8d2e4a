//! Benchmark entry point:
//! `amoeba-perfbench --workload <serve_paper|serve_tenants|train>
//! [--seed N] [--seconds S] [--trace 0|1]`.
//!
//! Prints a human-readable summary on stderr, then on stdout a line with
//! the machine/build descriptor and, last, the JSON result line. Exits
//! non-zero when a correctness check fails.

use amoeba_perfbench::{parse_args, report, run_traced, run_untraced};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: amoeba-perfbench --workload <serve_paper|serve_tenants|train> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let mut run = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let catalogue = if args.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    let result = run.outcome.to_json(&catalogue);
    for (name, unit) in &catalogue {
        eprintln!(
            "{:<40} {:>16.4} {unit}",
            name,
            run.outcome.values.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    for problem in &run.outcome.problems {
        eprintln!("FAILED: {problem}");
    }
    let extra: Vec<String> = run
        .extra
        .iter()
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"units\": {}, \
         \"fingerprint\": \"{:#018x}\", \"latency_samples\": {}, \
         \"extra\": {{{}}}, \"machine\": {}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        run.units,
        run.fingerprint,
        run.latency_samples,
        extra.join(", "),
        run.descriptor.to_json()
    );
    println!("{result}");
    if !run.outcome.correct {
        std::process::exit(1);
    }
}
