//! Lint a telemetry JSONL dump against the emitter contract.
//!
//! A thin caller of cibola-forensics: the dump streams through its one
//! reader ([`cibola_forensics::read_jsonl`]), which decodes each line once
//! and checks the writer's shape, the known-schema required fields and
//! the SOH severities, and its one fold
//! ([`cibola_forensics::ForensicsFold`]), which checks per-`(device,
//! subsystem)` chronology of point events and lifecycle causality — the
//! pass `mission_report` makes, so the two accept the same dumps and cite
//! the same first error. The lint adds a time horizon (`--max-t-ns`) and
//! rejects a dump with no event. CI runs it over the dump
//! `orbit_mission --telemetry` produces.
//!
//! Usage: `telemetry_lint <dump.jsonl> [--max-t-ns N]`
//!
//! Exits 1 on the first error, printed as `<dump>:<line>: <message>`
//! (`<dump>: <message>` for a whole-stream error). A malformed or missing
//! `--max-t-ns` value prints `error: --max-t-ns <value>: <reason>`, any
//! other argument after the dump `error: <arg>: unknown argument`, and a
//! run without a dump its usage; each exits 2, like every bench binary's
//! argument errors.

use std::io::BufReader;
use std::process::ExitCode;

use cibola_bench::Args;
use cibola_forensics::{read_jsonl, ForensicsError, ForensicsFold};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((path, flags)) = raw.split_first() else {
        eprintln!("usage: telemetry_lint <dump.jsonl> [--max-t-ns N]");
        return ExitCode::from(2);
    };
    let horizon = Args::read(flags, &["--max-t-ns"], &[]).u64("--max-t-ns", u64::MAX);

    let result = std::fs::File::open(path)
        .map_err(|e| ForensicsError {
            line: 0,
            message: e.to_string(),
        })
        .and_then(|file| lint(BufReader::new(file), horizon));
    match result {
        Ok(0) => eprintln!("{path}: no telemetry lines — instrumentation produced nothing"),
        Ok(lines) => {
            println!("{path}: {lines} line(s) OK");
            return ExitCode::SUCCESS;
        }
        Err(ForensicsError { line: 0, message }) => eprintln!("{path}: {message}"),
        Err(ForensicsError { line, message }) => eprintln!("{path}:{line}: {message}"),
    }
    ExitCode::FAILURE
}

/// Stream the dump through the reader, the horizon check and the fold;
/// the number of events, or the first error.
fn lint(dump: impl std::io::BufRead, horizon: u64) -> Result<usize, ForensicsError> {
    let mut fold = ForensicsFold::default();
    let mut events = 0;
    for ev in read_jsonl(dump) {
        let ev = ev?;
        if ev.t_ns > horizon {
            return Err(ForensicsError {
                line: ev.line,
                message: format!("t_ns {} exceeds horizon {horizon}", ev.t_ns),
            });
        }
        fold.push(&ev)?;
        events += 1;
    }
    fold.finish()?;
    Ok(events)
}
