//! `telemetry_lint` run as a program, against `mission_report`'s parser.

use std::process::{Command, Output};

use cibola::prelude::*;
use cibola_bench::conformance::{corpus_payload, mission_config, sparse_sensitivity};
use cibola_forensics::MissionForensics;
use cibola_scrub::Telemetry;

/// A short recorded storm mission, dumped the way `orbit_mission
/// --telemetry` writes it.
fn recorded_dump() -> String {
    let telemetry = Telemetry::recording();
    let mut payload = corpus_payload(&Geometry::tiny()).with_telemetry(telemetry.clone());
    run_mission(&mut payload, &mission_config(1, 7).0, &sparse_sensitivity());
    telemetry.dump_jsonl()
}

/// Write `text` to the file `name` and lint it.
fn lint(name: &str, text: impl AsRef<[u8]>) -> Output {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).unwrap();
    Command::new(env!("CARGO_BIN_EXE_telemetry_lint"))
        .arg(&path)
        .output()
        .unwrap()
}

#[test]
fn lint_and_forensics_skip_the_same_blank_lines() {
    // The dump with a line of three spaces after line 3.
    let dump = recorded_dump();
    let mut lines: Vec<&str> = dump.lines().collect();
    assert!(lines.len() > 3, "{} lines", lines.len());
    lines.insert(3, "   ");
    let text = lines.join("\n") + "\n";

    let out = lint("blank-line-dump.jsonl", &text);
    assert!(
        out.status.success(),
        "lint rejected the dump: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    MissionForensics::from_jsonl(&text).expect("forensics accepts the dump");
}

#[test]
fn lint_rejects_a_line_whose_t_ns_is_not_first() {
    // The dump with line 3's `t_ns` moved to the end of its object: still
    // valid JSON, still carrying every key, but not the writer's shape.
    let dump = recorded_dump();
    let mut lines: Vec<String> = dump.lines().map(str::to_string).collect();
    let body = lines[2]
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .unwrap();
    let (t_ns, rest) = body.split_once(',').unwrap();
    assert!(t_ns.starts_with("\"t_ns\":"), "{t_ns}");
    lines[2] = format!("{{{rest},{t_ns}}}");
    let text = lines.join("\n") + "\n";

    let out = lint("moved-t-ns-dump.jsonl", &text);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("moved-t-ns-dump.jsonl:3: first key must be \"t_ns\""),
        "{stderr}"
    );
}

#[test]
fn lint_and_forensics_cite_the_same_first_error() {
    // Line 3 with its `t_ns` out of u64 range and its closing brace
    // removed: the range error at byte 8 comes first in byte order, and
    // both tools must cite it.
    let dump = recorded_dump();
    let mut lines: Vec<String> = dump.lines().map(str::to_string).collect();
    let (t_ns, rest) = lines[2].split_once(',').unwrap();
    assert!(t_ns.starts_with("{\"t_ns\":"), "{t_ns}");
    let rest = rest.strip_suffix('}').unwrap();
    lines[2] = format!("{{\"t_ns\":99999999999999999999,{rest}");
    let text = lines.join("\n") + "\n";

    let out = lint("overflow-dump.jsonl", &text);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("overflow-dump.jsonl:3: byte 8: integer out of u64 range"),
        "{stderr}"
    );
    let err = MissionForensics::from_jsonl(&text).unwrap_err();
    assert_eq!(err.to_string(), "line 3: byte 8: integer out of u64 range");
}

#[test]
fn lint_cites_the_line_of_an_undecodable_byte() {
    // A 0xFF byte inside line 5: no UTF-8 text holds it.
    let dump = recorded_dump();
    let line5: usize = dump.lines().take(4).map(|l| l.len() + 1).sum();
    let mid = dump.lines().nth(4).unwrap().len() / 2;
    let mut bytes = dump.into_bytes();
    bytes.insert(line5 + mid, 0xFF);

    let out = lint("undecodable-dump.jsonl", &bytes);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "undecodable-dump.jsonl:5: byte {mid}: invalid UTF-8"
        )),
        "{stderr}"
    );
}

#[test]
fn lint_accepts_a_line_ending_in_crlf() {
    let dump = recorded_dump();
    let mut lines: Vec<&str> = dump.lines().collect();
    let line3 = format!("{}\r", lines[2]);
    lines[2] = &line3;
    let text = lines.join("\n") + "\n";

    let out = lint("crlf-dump.jsonl", &text);
    assert!(
        out.status.success(),
        "lint rejected the dump: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines = dump.lines().count();
    assert!(
        stdout.ends_with(&format!(": {lines} line(s) OK\n")),
        "{stdout}"
    );
}

#[test]
fn argument_errors_exit_2_like_every_bench_binary() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("args-dump.jsonl");
    std::fs::write(&path, recorded_dump()).unwrap();
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_telemetry_lint"))
            .args(args)
            .output()
            .unwrap()
    };
    let path = path.to_str().unwrap();
    for (args, message) in [
        (&[][..], "usage: telemetry_lint <dump.jsonl> [--max-t-ns N]"),
        (
            &[path, "--bogus"][..],
            "error: --bogus: unknown argument (expected --max-t-ns)",
        ),
        (
            &[path, "--max-t-ns"][..],
            "error: --max-t-ns: missing value",
        ),
        (
            &[path, "--max-t-ns", "x"][..],
            "error: --max-t-ns x: invalid digit found in string",
        ),
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    // A horizon read as given: every event past 1 ns breaks it.
    assert_eq!(run(&[path, "--max-t-ns", "1"]).status.code(), Some(1));
}
