//! Lint a telemetry JSONL dump.
//!
//! Every line must parse as a flat JSON object through the telemetry
//! crate's own reader ([`cibola_forensics::RawEvent`] over
//! `FlatObject`), and the stream must satisfy the emitter contract end
//! to end:
//!
//! - writer shape: one JSON object whose first top-level key is `t_ns`
//!   and which has a top-level `name` key (`validate_telemetry_line`,
//!   which reads the line once through `FlatObject`, so a malformed line
//!   is cited at the same first error `mission_report` meets);
//! - schema: any event in the known-schema table carries every required
//!   field (`known_event_required_fields`);
//! - horizon: no timestamp exceeds `--max-t-ns` when one is given;
//! - ordering: per `(device, subsystem)` stream, *point* events carry
//!   monotonically non-decreasing timestamps (spans like `mission.end`
//!   cover the whole mission and are exempt);
//! - causality: the forensics engine's own lifecycle reconstruction
//!   ([`cibola_forensics::reconstruct`]) accepts the stream — every
//!   `upset_id`/`sefi_id` reference resolves to a `mission.upset`/
//!   `mission.sefi` origin on an **earlier** line, no origin repeats and
//!   no lifecycle closes twice;
//! - severity: SOH events carry exactly the severity the shared
//!   [`SOH_EVENT_META`](cibola_telemetry::SOH_EVENT_META) table assigns
//!   them, so the downlink planner, the lint and forensics can never
//!   disagree about what is critical.
//!
//! CI runs this over the dump `orbit_mission --telemetry` produces, so a
//! regression in any instrumented crate fails the build rather than
//! silently shipping an unreadable flight record.
//!
//! Usage: `telemetry_lint <dump.jsonl> [--max-t-ns N]`
//!
//! Blank lines, empty or whitespace only, are skipped, exactly the lines
//! `cibola_forensics::parse_jsonl` skips, so the lint and
//! `mission_report` accept the same dumps.
//!
//! Exits non-zero on the first malformed line, reporting its number. A
//! malformed or missing `--max-t-ns` value prints `error: --max-t-ns
//! <value>: <reason>` and exits 2, like every bench binary's arguments.

use std::collections::HashMap;
use std::process::ExitCode;

use cibola_bench::Args;
use cibola_forensics::{reconstruct, RawEvent};
use cibola_telemetry::{known_event_required_fields, soh_meta_for, validate_telemetry_line};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = raw.first() else {
        eprintln!("usage: telemetry_lint <dump.jsonl> [--max-t-ns N]");
        return ExitCode::FAILURE;
    };
    let horizon = Args::parse().u64("--max-t-ns", u64::MAX);
    let mut rest = raw[1..].iter();
    while let Some(arg) = rest.next() {
        if arg != "--max-t-ns" {
            eprintln!("unknown argument: {arg}");
            return ExitCode::FAILURE;
        }
        rest.next();
    }

    let dump = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Per-(device, subsystem) last point timestamp; None device groups
    // the global (mission-wide) stream of that subsystem.
    let mut last_point: HashMap<(Option<(u16, u16)>, String), u64> = HashMap::new();
    let mut events = Vec::new();

    for (lineno, line) in dump.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Err(e) = validate_telemetry_line(line) {
            eprintln!("{path}:{lineno}: {} (at byte {})", e.message, e.at);
            return ExitCode::FAILURE;
        }
        let ev = match RawEvent::parse(line) {
            Ok(ev) => RawEvent { line: lineno, ..ev },
            Err(e) => {
                eprintln!("{path}:{lineno}: {e}");
                return ExitCode::FAILURE;
            }
        };

        if let Some(required) = known_event_required_fields(&ev.name) {
            for field in required {
                if !ev.fields.iter().any(|(k, _)| k == field) {
                    eprintln!(
                        "{path}:{lineno}: event {:?} is missing required field {field:?}",
                        ev.name
                    );
                    return ExitCode::FAILURE;
                }
            }
        }

        if ev.t_ns > horizon {
            eprintln!(
                "{path}:{lineno}: t_ns {} exceeds horizon {horizon}",
                ev.t_ns
            );
            return ExitCode::FAILURE;
        }

        // Ordering: each device's per-subsystem point stream must be
        // chronological. Spans (dur_ns present) describe intervals —
        // `mission.end` spans the whole mission from t=0 — and are
        // exempt by design.
        if ev.dur_ns.is_none() {
            let key = (ev.device, ev.subsystem.clone());
            let last = last_point.entry(key).or_insert(0);
            if ev.t_ns < *last {
                eprintln!(
                    "{path}:{lineno}: {} t_ns {} goes backwards (stream was at {})",
                    ev.name, ev.t_ns, *last
                );
                return ExitCode::FAILURE;
            }
            *last = ev.t_ns;
        }

        // Severity must come from the shared SOH table.
        if let Some(meta) = soh_meta_for(&ev.name) {
            if ev.severity != meta.severity.name() {
                eprintln!(
                    "{path}:{lineno}: {} severity {:?} != SOH table {:?}",
                    ev.name,
                    ev.severity,
                    meta.severity.name()
                );
                return ExitCode::FAILURE;
            }
        }

        events.push(ev);
    }

    if events.is_empty() {
        eprintln!("{path}: no telemetry lines — instrumentation produced nothing");
        return ExitCode::FAILURE;
    }
    // Causality: the stream must reconstruct. Line 0 is a whole-stream
    // error (an upset left open despite `mission.end`).
    if let Err(e) = reconstruct(&events) {
        match e.line {
            0 => eprintln!("{path}: {}", e.message),
            line => eprintln!("{path}:{line}: {}", e.message),
        }
        return ExitCode::FAILURE;
    }
    println!("{path}: {} line(s) OK", events.len());
    ExitCode::SUCCESS
}
