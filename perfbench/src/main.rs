//! `cibola-perfbench --workload <campaign|mission-storm>
//!  [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Untraced (`--trace 0`): set up, then time the workload's units
//! round-robin for `S` seconds and print the end-to-end metrics. Traced
//! (`--trace 1`): print the per-layer split. Either way the last stdout
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use std::process::ExitCode;

use cibola_perfbench::campaign::Campaign;
use cibola_perfbench::mission::Storm;
use cibola_perfbench::{
    commit, host_cpus, rayon_threads, result_json, run_traced, run_untraced, RunResult, Workload,
    DEFAULT_SEED,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad(&"must be a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run<W: Workload>(w: &W, args: &Args) -> RunResult {
    println!(
        "meta {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_cpus\": {}, \"rayon_threads\": {}, \"commit\": \"{}\"}}",
        args.workload,
        args.seed,
        args.trace as u8,
        host_cpus(),
        rayon_threads(),
        commit()
    );
    if args.trace {
        run_traced(w)
    } else {
        run_untraced(w, args.seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Load comes from one thread of this one process: on a host of a few
    // shared cores a wider pool times the scheduler, not the program.
    // Set before any worker pool exists.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let result = match args.workload.as_str() {
        "campaign" => run(&Campaign::paper(args.seed), &args),
        "mission-storm" => run(&Storm::paper(args.seed), &args),
        other => {
            eprintln!("error: unknown workload {other:?} (campaign, mission-storm)");
            return ExitCode::from(2);
        }
    };
    for line in &result.log {
        println!("{line}");
    }
    for note in &result.checks.notes {
        println!("FAILED {note}");
    }
    // A printed result carries its own verdict in `correct`.
    println!("{}", result_json(&result));
    ExitCode::SUCCESS
}
