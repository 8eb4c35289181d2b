//! Golden-snapshot tests for the deterministic experiment reports.
//!
//! Each test renders a smoke-tier experiment report through the same
//! library code `verify_experiments` runs and writes to `results/`, and
//! compares it byte-for-byte against `tests/golden/<name>.txt`. No report
//! holds host wall-clock time, so every one is deterministic.
//!
//! To accept an intentional output change:
//!
//! ```text
//! CIBOLA_BLESS=1 cargo test -p cibola-bench --test golden_snapshots
//! ```

use std::path::PathBuf;

use cibola_bench::experiments::{
    bist, fig4, fig7, fig8, orbit, rmw, scanrate, strategies, tmr, virtex2, Tier,
};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn assert_snapshot(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("CIBOLA_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); bless it with \
             CIBOLA_BLESS=1 cargo test -p cibola-bench --test golden_snapshots",
            path.display()
        )
    });
    if golden != rendered {
        // A unified first-divergence report beats a 60-line assert_eq dump.
        let diverge = golden
            .lines()
            .zip(rendered.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| golden.lines().count().min(rendered.lines().count()));
        panic!(
            "snapshot {name} diverged at line {}:\n golden:   {:?}\n rendered: {:?}\n\
             (CIBOLA_BLESS=1 re-blesses if the change is intended)",
            diverge + 1,
            golden.lines().nth(diverge).unwrap_or("<eof>"),
            rendered.lines().nth(diverge).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn fig7_trace_snapshot() {
    let r = fig7::run(&fig7::Fig7Params::for_tier(Tier::Smoke));
    assert_snapshot("fig7_smoke", &r.report);
}

#[test]
fn fig8_cost_model_snapshot() {
    assert_snapshot("fig8_cost_model", &fig8::run().report);
}

#[test]
fn fig4_flight_scan_cycle_snapshot() {
    // Only the deterministic flight-geometry header (the mission section
    // depends on tier); cut at the first blank line.
    let r = fig4::run(&fig4::Fig4Params {
        hours: 1,
        ..fig4::Fig4Params::smoke()
    });
    let head: String = r
        .report
        .lines()
        .take_while(|l| !l.trim().is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    assert_snapshot("fig4_flight_header", &head);
}

#[test]
fn orbit_rates_snapshot() {
    let r = orbit::run(&orbit::OrbitParams::for_tier(Tier::Smoke));
    assert_snapshot("orbit_rates", &r.report);
}

#[test]
fn bist_coverage_snapshot() {
    let r = bist::run(&bist::BistParams::for_tier(Tier::Smoke));
    assert_snapshot("bist_coverage", &r.report);
}

#[test]
fn selective_tmr_snapshot() {
    let r = tmr::run(&tmr::TmrParams::for_tier(Tier::Smoke));
    assert_snapshot("selective_tmr", &r.report);
}

#[test]
fn scanrate_smoke_snapshot() {
    let r = scanrate::run(&scanrate::ScanrateParams::for_tier(Tier::Smoke));
    assert_snapshot("scanrate_smoke", &r.report);
}

#[test]
fn rmw_snapshot() {
    assert_snapshot("rmw", &rmw::run().report);
}

#[test]
fn virtex2_masking_snapshot() {
    let r = virtex2::run(&virtex2::Virtex2Params::for_tier(Tier::Smoke));
    assert_snapshot("virtex2_masking", &r.report);
}

#[test]
fn strategy_compare_smoke_snapshot() {
    // Pins each strategy's FLASH words read, which no corpus digest covers.
    let r = strategies::run(&strategies::StrategiesParams::smoke());
    assert_snapshot("strategy_compare_smoke", &r.report);
}
