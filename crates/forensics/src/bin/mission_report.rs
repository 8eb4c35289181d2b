//! Render a mission forensics report from a telemetry JSONL dump.
//!
//! ```text
//! mission_report <dump.jsonl> [--json] [--strict]
//! ```
//!
//! The file streams through the crate's one reader and fold
//! ([`MissionForensics::from_reader`]), as `telemetry_lint`'s does.
//!
//! Text mode prints the human report; `--json` prints the machine
//! report as one JSON object. `--strict` exits non-zero when the
//! roll-up fails exact reconciliation — the CI posture. Anomalies are
//! findings about the *mission*, not stream defects, so they never fail
//! the run (a starved downlink budget legitimately sheds, for example).

use std::process::ExitCode;

use cibola_forensics::MissionForensics;

fn main() -> ExitCode {
    let mut path = None;
    let mut json = false;
    let mut strict = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--strict" => strict = true,
            "--help" | "-h" => {
                eprintln!("usage: mission_report <dump.jsonl> [--json] [--strict]");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("mission_report: unexpected argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let path = match path {
        Some(p) => p,
        None => {
            eprintln!("usage: mission_report <dump.jsonl> [--json] [--strict]");
            return ExitCode::FAILURE;
        }
    };
    let report = match std::fs::File::open(&path) {
        Ok(file) => {
            MissionForensics::from_reader(std::io::BufReader::new(file)).map_err(|e| e.to_string())
        }
        Err(e) => Err(e.to_string()),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mission_report: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if strict {
        let errs = report.reconcile();
        if !errs.is_empty() {
            eprintln!(
                "mission_report: reconciliation failed ({} mismatches)",
                errs.len()
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
