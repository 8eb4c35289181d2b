//! Forensics ↔ kernel reconciliation, pinned four ways:
//!
//! 1. **Exact totals** — on a fixed-seed SEFI-chaos mission, the
//!    forensics report re-derived from the telemetry stream must agree
//!    with the kernel's own `MissionStats` *exactly*: integer counters by
//!    equality, `availability` and the scrub MTTR mean bit-for-bit — for
//!    the built-in mission and all five zoo strategies (six in total).
//! 2. **Kernel invariance** — the event-driven and reference kernels
//!    must yield byte-identical forensics reports (text and JSON), since
//!    they emit identical lifecycle streams.
//! 3. **Seed sweep** — a proptest sweep repeats both properties on
//!    arbitrary seeds.
//! 4. **Corpus stride + golden snapshot** — a stride of conformance
//!    corpus missions digests the report JSON under both kernels, and
//!    the `miss-sefi-chaos-r0` case's text report is pinned as a golden
//!    snapshot (re-bless with `CIBOLA_BLESS=1`).

use std::path::PathBuf;

use cibola::prelude::*;
use cibola::scrub::{
    make_strategy, run_mission_reference, run_strategy_mission, run_strategy_mission_reference,
};
use cibola_bench::conformance::{
    all_cases, corpus_payload, damage_for_degradation, mission_config, mission_seed,
    sparse_sensitivity, CaseParams, Digest,
};
use cibola_forensics::MissionForensics;
use cibola_scrub::{MissionStats, Telemetry, STRATEGY_NAMES};
use proptest::prelude::*;

/// The fixed-seed anchor mission: corpus regime 2 (SEFI chaos), with the
/// SEFI process hot enough (the determinism suite's 40/320 per-hour
/// rates) that port lies, unprograms and codebook hits all appear.
fn chaos(seed: u64) -> MissionConfig {
    use cibola::radiation::sefi::{SefiMix, SefiRates};
    use cibola::radiation::SefiConfig;
    let mut cfg = mission_config(2, seed).0;
    cfg.sefi = Some(SefiConfig {
        rates: SefiRates {
            quiet_per_hour: 40.0,
            flare_per_hour: 320.0,
            devices: 9,
        },
        mix: SefiMix::default(),
    });
    cfg
}

fn recorded_mission(cfg: &MissionConfig, reference: bool) -> (MissionStats, MissionForensics) {
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();
    let telemetry = Telemetry::recording();
    let mut payload = corpus_payload(&geom).with_telemetry(telemetry.clone());
    let stats = if reference {
        run_mission_reference(&mut payload, cfg, &sens)
    } else {
        run_mission(&mut payload, cfg, &sens)
    };
    let report = MissionForensics::from_events(&telemetry.events()).expect("stream reconstructs");
    (stats, report)
}

/// Exact agreement between a forensics report and the kernel's stats:
/// reconciliation closes, and the cross-checkable fields match (floats
/// bit-for-bit).
fn assert_exact(report: &MissionForensics, stats: &MissionStats, what: &str) {
    let errs = report.reconcile();
    assert!(errs.is_empty(), "{what}: reconciliation failed: {errs:?}");
    assert_eq!(report.upsets, stats.upsets_total as u64, "{what}: upsets");
    assert_eq!(report.sefis, stats.sefis_injected as u64, "{what}: sefis");
    assert_eq!(
        report.availability.to_bits(),
        stats.availability.to_bits(),
        "{what}: availability not bit-identical ({} vs {})",
        report.availability,
        stats.availability
    );
    assert_eq!(
        report.scrub_mttr_mean_ms.to_bits(),
        stats.detect_latency_mean_ms.to_bits(),
        "{what}: MTTR mean not bit-identical ({} vs {})",
        report.scrub_mttr_mean_ms,
        stats.detect_latency_mean_ms
    );
    // Attribution must cover the whole outage: per-cause outage sums to
    // the mission total exactly (both are exact u64 sums).
    let attributed: u64 = report.causes.values().map(|c| c.unavailable_ns).sum();
    assert_eq!(
        attributed, report.unavailable_ns,
        "{what}: outage attribution incomplete"
    );
}

#[test]
fn builtin_mission_reconciles_exactly_on_chaos() {
    let cfg = chaos(42);
    let (stats, report) = recorded_mission(&cfg, false);
    assert_eq!(report.strategy, "builtin");
    assert!(report.upsets > 0, "chaos mission injected nothing");
    assert!(report.sefis > 0, "chaos mission produced no SEFIs");
    assert_exact(&report, &stats, "builtin");
}

/// A zero-length mission has no exposure: the kernel reports
/// availability 1.0, the rule forensics applies, not 0/0.
#[test]
fn zero_length_mission_reconciles_exactly() {
    let mut cfg = chaos(42);
    cfg.duration = SimDuration::ZERO;
    let (stats, report) = recorded_mission(&cfg, false);
    assert_eq!(stats.availability, 1.0);
    assert_exact(&report, &stats, "zero-length");
}

#[test]
fn all_five_zoo_strategies_reconcile_exactly_on_chaos() {
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();
    for name in STRATEGY_NAMES {
        let cfg = chaos(42);
        let telemetry = Telemetry::recording();
        let mut payload = corpus_payload(&geom).with_telemetry(telemetry.clone());
        let mut strategy = make_strategy(name);
        let stats = run_strategy_mission(&mut payload, &cfg, &sens, strategy.as_mut());
        let report =
            MissionForensics::from_events(&telemetry.events()).expect("stream reconstructs");
        assert_eq!(report.strategy, name, "strategy banner");
        assert_exact(&report, &stats.mission, name);
    }
}

#[test]
fn reports_are_byte_identical_across_kernels() {
    let cfg = chaos(42);
    let (stats_e, report_e) = recorded_mission(&cfg, false);
    let (stats_r, report_r) = recorded_mission(&cfg, true);
    assert_eq!(stats_e, stats_r, "kernels diverged before forensics");
    assert_eq!(
        report_e.render_text(),
        report_r.render_text(),
        "text reports diverged across kernels"
    );
    assert_eq!(
        report_e.to_json(),
        report_r.to_json(),
        "JSON reports diverged across kernels"
    );
}

#[test]
fn strategy_drivers_are_report_invariant() {
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();
    for name in STRATEGY_NAMES {
        let cfg = chaos(7);
        let tele_e = Telemetry::recording();
        let tele_r = Telemetry::recording();
        let mut p_e = corpus_payload(&geom).with_telemetry(tele_e.clone());
        let mut p_r = corpus_payload(&geom).with_telemetry(tele_r.clone());
        let mut s_e = make_strategy(name);
        let mut s_r = make_strategy(name);
        run_strategy_mission(&mut p_e, &cfg, &sens, s_e.as_mut());
        run_strategy_mission_reference(&mut p_r, &cfg, &sens, s_r.as_mut());
        let r_e = MissionForensics::from_events(&tele_e.events()).unwrap();
        let r_r = MissionForensics::from_events(&tele_r.events()).unwrap();
        assert_eq!(
            r_e.to_json(),
            r_r.to_json(),
            "{name}: strategy drivers produced different reports"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Arbitrary-seed sweep: exact reconciliation and kernel invariance
    /// both hold for any chaos seed, not just the anchored ones.
    #[test]
    fn prop_reconciliation_holds_for_any_seed(seed in any::<u64>()) {
        let cfg = chaos(seed);
        let (stats_e, report_e) = recorded_mission(&cfg, false);
        let (_, report_r) = recorded_mission(&cfg, true);
        assert_exact(&report_e, &stats_e, &format!("seed {seed}"));
        prop_assert_eq!(report_e.to_json(), report_r.to_json());
    }
}

/// A stride of conformance-corpus mission cases: the forensics JSON
/// digest must be bit-identical between the event-driven and reference
/// kernels on every sampled case (every regime is hit at this stride).
#[test]
fn corpus_stride_reports_are_kernel_invariant() {
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();
    let mission_cases: Vec<_> = all_cases()
        .into_iter()
        .filter_map(|c| match c.params {
            CaseParams::Mission { regime, rep } => Some((c.id, regime, rep)),
            _ => None,
        })
        .collect();
    let mut checked = 0;
    for (id, regime, rep) in mission_cases.iter().step_by(7) {
        let seed = mission_seed(*regime, *rep);
        let (cfg, damaged) = mission_config(*regime, seed);
        let mut digests = Vec::new();
        for reference in [false, true] {
            let telemetry = Telemetry::recording();
            let mut payload = corpus_payload(&geom).with_telemetry(telemetry.clone());
            if damaged {
                damage_for_degradation(&mut payload);
            }
            if reference {
                run_mission_reference(&mut payload, &cfg, &sens);
            } else {
                run_mission(&mut payload, &cfg, &sens);
            }
            let report = MissionForensics::from_events(&telemetry.events())
                .unwrap_or_else(|e| panic!("{id}: stream did not reconstruct: {e}"));
            assert!(
                report.reconcile().is_empty(),
                "{id}: reconciliation failed under {} kernel",
                if reference { "reference" } else { "event" }
            );
            let mut h = Digest::new();
            h.bytes(report.to_json().as_bytes());
            digests.push(h.finish());
        }
        assert_eq!(
            digests[0], digests[1],
            "{id}: report JSON digest differs between kernels"
        );
        checked += 1;
    }
    assert!(checked >= 6, "stride sampled only {checked} cases");
}

// ---------------------------------------------------------------------
// Golden snapshot of the rendered report
// ---------------------------------------------------------------------

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

#[test]
fn mission_report_text_snapshot() {
    // The anchor mission: corpus regime 2 at the determinism suite's hot
    // SEFI rates, seed 42 — rich enough that SEFI cause classes appear.
    let cfg = chaos(42);
    let (_, report) = recorded_mission(&cfg, false);
    let rendered = report.render_text();
    let path = golden_path("mission_forensics");
    if std::env::var_os("CIBOLA_BLESS").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); bless with CIBOLA_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        golden, rendered,
        "mission forensics report drifted; CIBOLA_BLESS=1 re-blesses if intended"
    );
}
