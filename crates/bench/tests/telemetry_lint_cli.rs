//! `telemetry_lint` run as a program, against `mission_report`'s parser.

use std::process::Command;

use cibola::prelude::*;
use cibola_bench::conformance::{corpus_payload, mission_config, sparse_sensitivity};
use cibola_forensics::MissionForensics;
use cibola_scrub::Telemetry;

#[test]
fn lint_and_forensics_skip_the_same_blank_lines() {
    // A short recorded storm mission, dumped the way `orbit_mission
    // --telemetry` writes it, with a line of three spaces after line 3.
    let telemetry = Telemetry::recording();
    let mut payload = corpus_payload(&Geometry::tiny()).with_telemetry(telemetry.clone());
    run_mission(&mut payload, &mission_config(1, 7).0, &sparse_sensitivity());
    let dump = telemetry.dump_jsonl();
    let mut lines: Vec<&str> = dump.lines().collect();
    assert!(lines.len() > 3, "{} lines", lines.len());
    lines.insert(3, "   ");
    let text = lines.join("\n") + "\n";

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("blank-line-dump.jsonl");
    std::fs::write(&path, &text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_telemetry_lint"))
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "lint rejected the dump: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    MissionForensics::from_jsonl(&text).expect("forensics accepts the dump");
}
