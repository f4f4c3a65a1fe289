//! `prfpga-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints the machine, a table of every metric with its
//! unit and the run's notes, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when any output failed validation, 2 on bad arguments.

use std::process::ExitCode;

use prfpga_perfbench::{machine_line, run, Opts, WORKLOADS};

fn usage() -> ExitCode {
    eprintln!(
        "usage: prfpga-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        toy: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| opts.seconds = v)
                .is_ok_and(|()| opts.seconds.is_finite() && opts.seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    opts.trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(name) = workload else {
        return usage();
    };
    println!("{}", machine_line());
    println!(
        "workload={name} seed={} seconds={} trace={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let Some(report) = run(&name, &opts) else {
        return usage();
    };
    print!("{}", report.render_table(opts.trace));
    println!("{}", report.render_json(opts.trace));
    if report.correct(opts.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
