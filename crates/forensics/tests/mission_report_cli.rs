//! `mission_report` run as a program, and the streamed reader under it,
//! on a recorded dump: a byte that is not UTF-8 fails citing its line,
//! and a line ending in `\r\n` reads like any other.

use std::process::{Command, Output};

use cibola_forensics::{parse_jsonl, read_jsonl, MissionForensics};
use cibola_telemetry::{Severity, Subsystem, Telemetry, TelemetryEvent};

/// A short mission recorded through a `Telemetry` sink and dumped: one
/// upset the scrubber finds, repairs and resolves, one that leaks, and
/// the roll-up.
fn recorded_dump() -> String {
    let t = Telemetry::recording();
    let mission = |name, t_ns, fpga| {
        TelemetryEvent::point(Subsystem::Mission, Severity::Info, name, t_ns).with_device(0, fpga)
    };
    let scrub = |name, t_ns| {
        TelemetryEvent::point(Subsystem::Scrub, Severity::Info, name, t_ns)
            .with_device(0, 1)
            .with_u64("frame", 7)
            .with_u64("upset_id", 1)
    };
    let upset = |t_ns, fpga, id, cause| {
        mission("mission.upset", t_ns, fpga)
            .with_u64("upset_id", id)
            .with_str("cause", cause)
            .with_bool("sensitive", true)
            .with_bool("repairable", cause == "config")
    };
    t.emit(upset(10, 1, 1, "config"));
    t.emit(scrub("scrub.frame_corrupt", 40));
    t.emit(scrub("scrub.frame_repaired", 60));
    t.emit(
        mission("mission.upset_resolved", 100, 1)
            .with_u64("upset_id", 1)
            .with_str("cause", "config")
            .with_u64("latency_ns", 90)
            .with_bool("sensitive", true)
            .with_str("via", "scrub"),
    );
    t.emit(upset(200, 2, 2, "half-latch"));
    t.emit(
        mission("mission.upset_leaked", 1000, 2)
            .with_severity(Severity::Warning)
            .with_u64("upset_id", 2)
            .with_str("cause", "half-latch")
            .with_u64("age_ns", 800)
            .with_bool("sensitive", true),
    );
    t.emit(
        TelemetryEvent::span(Subsystem::Mission, "mission.end", 0, 1000)
            .with_u64("devices", 2)
            .with_u64("upsets_total", 2)
            .with_u64("detected", 1)
            .with_u64("unavailable_ns", 890)
            .with_f64("availability", 0.999_999_555),
    );
    t.dump_jsonl()
}

/// Write `dump` to the file `name` and run `mission_report` on it.
fn report(name: &str, dump: impl AsRef<[u8]>) -> Output {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, dump).unwrap();
    Command::new(env!("CARGO_BIN_EXE_mission_report"))
        .arg(&path)
        .output()
        .unwrap()
}

#[test]
fn an_undecodable_byte_is_cited_at_its_line() {
    let dump = recorded_dump();
    assert!(MissionForensics::from_jsonl(&dump).is_ok());
    // A 0xFF byte inside line 5: no UTF-8 text holds it.
    let line5: usize = dump.lines().take(4).map(|l| l.len() + 1).sum();
    let mid = dump.lines().nth(4).unwrap().len() / 2;
    let mut bytes = dump.into_bytes();
    bytes.insert(line5 + mid, 0xFF);

    let out = report("undecodable-dump.jsonl", &bytes);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let cited = format!("line 5: byte {mid}: invalid UTF-8");
    assert!(stderr.contains(&cited), "{stderr}");

    let mut events = read_jsonl(&bytes[..]);
    for line in 1..=4 {
        assert_eq!(events.next().unwrap().unwrap().line, line);
    }
    assert_eq!(events.next().unwrap().unwrap_err().to_string(), cited);
}

#[test]
fn a_line_ending_in_crlf_reads_like_any_other() {
    let dump = recorded_dump();
    let mut lines: Vec<&str> = dump.lines().collect();
    let line3 = format!("{}\r", lines[2]);
    lines[2] = &line3;
    let crlf = lines.join("\n") + "\n";

    let out = report("crlf-dump.jsonl", &crlf);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, report("plain-dump.jsonl", &dump).stdout);
    assert_eq!(parse_jsonl(&crlf).unwrap(), parse_jsonl(&dump).unwrap());
}
