//! `verify_experiments` run as a program: its experiment ids and the
//! report files it writes.

use std::path::Path;
use std::process::{Command, Output};

use cibola_bench::experiments::orbit::{self, OrbitParams};

fn verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_verify_experiments"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn unknown_ids_and_flags_are_usage_errors() {
    for (args, error) in [
        (
            &["--only", "E9,E99"][..],
            "error: --only E99: unknown experiment (expected one of E1, E2,",
        ),
        (
            &["--only", "E9", "--print-reports"][..],
            "error: --print-reports: unknown argument (expected --tier, --only, --reports, --out)",
        ),
    ] {
        let out = verify(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(error), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no claim ran");
    }
}

#[test]
fn reports_writes_exactly_the_experiments_it_ran() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let dir = tmp.join("verify-reports");
    let _ = std::fs::remove_dir_all(&dir);
    let summary = tmp.join("verify-reports.json");

    let out = verify(&[
        "--tier",
        "smoke",
        "--only",
        "E9",
        "--reports",
        dir.to_str().unwrap(),
        "--out",
        summary.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(files, ["orbit_rates.txt"]);
    assert_eq!(
        std::fs::read_to_string(dir.join("orbit_rates.txt")).unwrap(),
        orbit::run(&OrbitParams::smoke()).report
    );
}
