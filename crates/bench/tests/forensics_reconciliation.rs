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
//! 5. **One-line edits** — the chaos dump with one line deleted,
//!    duplicated, swapped with its neighbour, truncated or changed in one
//!    byte never panics the streamed reader and fold, and every error
//!    cites a line at or past the edit (or line 0, a whole-stream
//!    error). Deleting an upset's origin, moving a point event before its
//!    stream's past and changing an SOH event's severity each fail at the
//!    line that breaks the contract.

use std::path::PathBuf;
use std::sync::OnceLock;

use cibola::prelude::*;
use cibola::scrub::{
    make_strategy, run_mission_reference, run_strategy_mission, run_strategy_mission_reference,
};
use cibola_bench::conformance::{
    all_cases, corpus_payload, damage_for_degradation, mission_config, mission_seed,
    sparse_sensitivity, CaseParams, Digest,
};
use cibola_forensics::{parse_jsonl, ForensicsError, IdSpace, MissionForensics, RawEvent};
use cibola_scrub::{MissionStats, Telemetry, STRATEGY_NAMES};
use cibola_telemetry::soh_meta_for;
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
// The streamed reader and fold under one-line edits of the chaos dump
// ---------------------------------------------------------------------

/// The built-in `chaos(42)` mission's dump, one entry per line.
fn chaos_dump() -> &'static [Vec<u8>] {
    static LINES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    LINES.get_or_init(|| {
        let telemetry = Telemetry::recording();
        let mut payload = corpus_payload(&Geometry::tiny()).with_telemetry(telemetry.clone());
        run_mission(&mut payload, &chaos(42), &sparse_sensitivity());
        let dump = telemetry.dump_jsonl();
        dump.lines().map(|l| l.as_bytes().to_vec()).collect()
    })
}

/// The chaos dump decoded, one event per line.
fn chaos_events() -> Vec<RawEvent> {
    let lines = chaos_dump();
    let events = parse_jsonl(&String::from_utf8(lines.join(&b'\n')).unwrap()).unwrap();
    assert_eq!(events.len(), lines.len(), "a dump has no blank lines");
    events
}

/// Read `lines` as one dump through the streamed reader and fold; the
/// dump's line count and the result.
fn fold(lines: &[Vec<u8>]) -> (usize, Result<MissionForensics, ForensicsError>) {
    let dump = lines.join(&b'\n');
    let count = dump.split(|&b| b == b'\n').count();
    (count, MissionForensics::from_reader(&dump[..]))
}

/// `lines` with line `k` (0-based) deleted, duplicated, swapped with its
/// neighbour, truncated at `at`, or with byte `at` set to `byte`; and
/// the first line (0-based) the edit changed.
fn edit(lines: &[Vec<u8>], k: usize, op: u8, at: usize, byte: u8) -> (Vec<Vec<u8>>, usize) {
    let mut out = lines.to_vec();
    let k = k % lines.len();
    match op % 5 {
        0 => {
            out.remove(k);
        }
        1 => out.insert(k, lines[k].clone()),
        2 => {
            let k = k.min(lines.len() - 2);
            out.swap(k, k + 1);
            return (out, k);
        }
        3 => out[k].truncate(at % (lines[k].len() + 1)),
        _ => out[k][at % lines[k].len()] = byte,
    }
    (out, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_one_line_edits_fail_at_or_past_the_edit(
        k in any::<usize>(),
        op in 0u8..5,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let (lines, first) = edit(chaos_dump(), k, op, at, byte);
        if let (count, Err(e)) = fold(&lines) {
            prop_assert!(
                e.line == 0 || (first + 1..=count).contains(&e.line),
                "edit {op} of line {}: {e} outside {}..={count}", first + 1, first + 1
            );
        }
    }
}

#[test]
fn deleting_an_upset_origin_fails_at_its_first_reference() {
    let (lines, events) = (chaos_dump(), chaos_events());
    let origin = events
        .iter()
        .position(|ev| ev.name() == "mission.upset")
        .unwrap();
    let id = events[origin].correlation().unwrap();
    assert_eq!(id.0, IdSpace::Upset);
    let reference = events[origin + 1..]
        .iter()
        .find(|ev| ev.correlation() == Some(id))
        .expect("every upset closes by mission end");

    let (edited, _) = edit(lines, origin, 0, 0, 0);
    let err = fold(&edited).1.unwrap_err();
    // The reference moved up one line with the origin gone.
    assert_eq!(err.line, reference.line - 1, "{err}");
    assert!(
        err.message.contains(&format!("unknown id {}", id.1))
            || err.message.contains(&format!("unknown upset id {}", id.1)),
        "{err}"
    );
}

#[test]
fn a_point_event_moved_before_its_stream_fails_where_the_stream_steps_back() {
    let (lines, events) = (chaos_dump(), chaos_events());
    // A point event with no correlation id (it can move anywhere without
    // breaking causality) and an earlier, strictly older event of its
    // (device, subsystem) stream.
    let (older, moved) = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.dur_ns.is_none() && e.correlation().is_none())
        .find_map(|(j, e)| {
            events[..j]
                .iter()
                .rposition(|p| {
                    p.dur_ns.is_none()
                        && (p.device, p.subsystem()) == (e.device, e.subsystem())
                        && p.t_ns < e.t_ns
                })
                .map(|i| (i, j))
        })
        .expect("a point stream that advances");

    let mut edited = lines.to_vec();
    let line = edited.remove(moved);
    edited.insert(older, line);
    let err = fold(&edited).1.unwrap_err();
    // The older event now sits one line lower, after the moved one.
    assert_eq!(err.line, older + 2, "{err}");
    assert!(err.message.contains("goes backwards"), "{err}");
}

#[test]
fn an_soh_event_with_another_severity_fails_at_its_line() {
    let (lines, events) = (chaos_dump(), chaos_events());
    let soh = events
        .iter()
        .position(|ev| soh_meta_for(ev.name()).is_some())
        .unwrap();
    let sev = events[soh].severity();
    let other = if sev == "critical" {
        "debug"
    } else {
        "critical"
    };
    let text = String::from_utf8(lines[soh].clone()).unwrap();
    let mut edited = lines.to_vec();
    edited[soh] = text
        .replacen(
            &format!("\"sev\":\"{sev}\""),
            &format!("\"sev\":\"{other}\""),
            1,
        )
        .into_bytes();
    assert_ne!(edited[soh], lines[soh]);

    let err = fold(&edited).1.unwrap_err();
    assert_eq!(err.line, soh + 1, "{err}");
    assert!(err.message.contains("!= SOH table"), "{err}");
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
