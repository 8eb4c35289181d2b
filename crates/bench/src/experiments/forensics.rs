//! E13 — mission forensics: causal upset-lifecycle tracing closes the
//! ledger.
//!
//! Flies four instrumented missions and feeds their telemetry streams
//! through the `cibola-forensics` root-cause engine:
//!
//! 1. **Chaos anchor** — the E12 chaos scenario at hot SEFI rates, flown
//!    through *both* kernels: the report must reconcile exactly against
//!    the `mission.end` roll-up, and the report JSON must be
//!    bit-identical across kernels.
//! 2. **Strategy sweep** — all five zoo strategies on the same scenario:
//!    each stream must reconcile exactly too.
//! 3. **Leak mission** — the same storm without periodic reconfiguration,
//!    so unrepairable half-latches stay outstanding: the unresolved-leak
//!    detector must catch exactly the leaked lifecycles.
//! 4. **Shed storm** — a starved SOH downlink budget: the plan's
//!    `sent + shed` must account for every SOH record and the shed-storm
//!    detector must fire.

use std::fmt::Write as _;

use cibola::prelude::*;
use cibola::radiation::sefi::{SefiMix, SefiRates};
use cibola::radiation::SefiConfig;
use cibola::scrub::{make_strategy, run_mission_reference, run_strategy_mission, STRATEGY_NAMES};
use cibola_forensics::MissionForensics;
use cibola_scrub::{MissionStats, Telemetry};

use super::Tier;
use crate::conformance::{corpus_payload, sparse_sensitivity, Digest};

#[derive(Debug, Clone)]
pub struct ForensicsParams {
    pub geometry: Geometry,
    /// Mission duration, seconds.
    pub chaos_s: u64,
    pub seed: u64,
}

impl ForensicsParams {
    pub fn paper() -> Self {
        ForensicsParams {
            geometry: Geometry::tiny(),
            chaos_s: 1800,
            seed: 42,
        }
    }

    pub fn smoke() -> Self {
        ForensicsParams {
            chaos_s: 450,
            ..ForensicsParams::paper()
        }
    }

    pub fn for_tier(tier: Tier) -> Self {
        match tier {
            Tier::Smoke => ForensicsParams::smoke(),
            Tier::Paper => ForensicsParams::paper(),
        }
    }
}

#[derive(Debug)]
pub struct ForensicsResult {
    /// Chaos anchor, event-driven kernel.
    pub builtin: MissionForensics,
    pub builtin_stats: MissionStats,
    /// FNV digests of the report JSON under each kernel.
    pub event_json_digest: u64,
    pub reference_json_digest: u64,
    /// Reconciliation mismatch count per zoo strategy, in
    /// `STRATEGY_NAMES` order.
    pub strategy_mismatches: Vec<(&'static str, usize)>,
    /// Fraction of chaos upsets injected inside the flare window.
    pub flare_share: f64,
    /// Leak mission: leaked lifecycles and fired leak anomalies.
    pub leaked_lifecycles: usize,
    pub leak_anomalies: usize,
    pub leak_reconciles: bool,
    /// Shed mission accounting.
    pub shed_storm_fired: bool,
    pub shed_reconciles: bool,
    pub report: String,
}

/// The E12 chaos scenario with the determinism suite's hot SEFI rates,
/// so port lies, unprograms and codebook strikes appear in the record.
fn chaos_config(p: &ForensicsParams) -> MissionConfig {
    MissionConfig {
        duration: SimDuration::from_secs(p.chaos_s),
        rates: OrbitRates {
            quiet_per_hour: 400.0,
            flare_per_hour: 3200.0,
            devices: 9,
        },
        flare: Some((
            SimTime::from_secs(p.chaos_s / 4),
            SimTime::from_secs(p.chaos_s / 2),
        )),
        periodic_full_reconfig: Some(SimDuration::from_secs(p.chaos_s / 2)),
        sefi: Some(SefiConfig {
            rates: SefiRates {
                quiet_per_hour: 40.0,
                flare_per_hour: 320.0,
                devices: 9,
            },
            mix: SefiMix::default(),
        }),
        seed: p.seed,
        ..Default::default()
    }
}

fn json_digest(report: &MissionForensics) -> u64 {
    let mut h = Digest::new();
    h.bytes(report.to_json().as_bytes());
    h.finish()
}

pub fn run(p: &ForensicsParams) -> ForensicsResult {
    let geom = &p.geometry;
    let chaos = chaos_config(p);
    let sens = sparse_sensitivity();

    // 1. Chaos anchor under both kernels.
    let tele_e = Telemetry::recording();
    let mut payload = corpus_payload(geom).with_telemetry(tele_e.clone());
    let builtin_stats = run_mission(&mut payload, &chaos, &sens);
    let builtin =
        MissionForensics::from_events(&tele_e.events()).expect("chaos stream reconstructs");
    let event_json_digest = json_digest(&builtin);

    let tele_r = Telemetry::recording();
    let mut payload_r = corpus_payload(geom).with_telemetry(tele_r.clone());
    run_mission_reference(&mut payload_r, &chaos, &sens);
    let reference = MissionForensics::from_events(&tele_r.events())
        .expect("reference chaos stream reconstructs");
    let reference_json_digest = json_digest(&reference);

    // Flare share: fraction of upset injections inside the flare window.
    let (flare_lo, flare_hi) = (
        SimTime::from_secs(p.chaos_s / 4).as_nanos(),
        SimTime::from_secs(p.chaos_s / 2).as_nanos(),
    );
    let in_flare = builtin
        .lifecycles
        .iter()
        .filter(|l| {
            l.space == cibola_forensics::IdSpace::Upset
                && l.born_ns >= flare_lo
                && l.born_ns < flare_hi
        })
        .count();
    let flare_share = if builtin.upsets == 0 {
        0.0
    } else {
        in_flare as f64 / builtin.upsets as f64
    };

    // 2. Strategy sweep: every zoo strategy's stream must reconcile.
    let mut strategy_mismatches = Vec::new();
    for name in STRATEGY_NAMES {
        let tele = Telemetry::recording();
        let mut payload = corpus_payload(geom).with_telemetry(tele.clone());
        let mut strategy = make_strategy(name);
        run_strategy_mission(&mut payload, &chaos, &sens, strategy.as_mut());
        let report =
            MissionForensics::from_events(&tele.events()).expect("strategy stream reconstructs");
        strategy_mismatches.push((name, report.reconcile().len()));
    }

    // 3. Leak mission: no periodic reconfig, so half-latches (scrub
    // cannot repair them) stay outstanding to mission end.
    let leak_cfg = MissionConfig {
        periodic_full_reconfig: None,
        ..chaos.clone()
    };
    let tele_l = Telemetry::recording();
    let mut payload_l = corpus_payload(geom).with_telemetry(tele_l.clone());
    run_mission(&mut payload_l, &leak_cfg, &sens);
    let leak_report =
        MissionForensics::from_events(&tele_l.events()).expect("leak stream reconstructs");
    let leaked_lifecycles = leak_report
        .lifecycles
        .iter()
        .filter(|l| matches!(l.outcome, cibola_forensics::Outcome::Leaked { .. }))
        .count();
    let leak_anomalies = leak_report
        .anomalies
        .iter()
        .filter(|a| a.kind == "unresolved-leak")
        .count();
    let leak_reconciles = leak_report.reconcile().is_empty();

    // 4. Shed storm: the corpus downlink policy (96-byte passes) starves
    // the SOH stream, so the plan must shed — and must say so.
    let shed_cfg = MissionConfig {
        soh_downlink: Some(SohDownlinkPolicy::new(
            96,
            SimDuration::from_secs(60).as_nanos(),
            16,
        )),
        ..chaos.clone()
    };
    let tele_s = Telemetry::recording();
    let mut payload_s = corpus_payload(geom).with_telemetry(tele_s.clone());
    run_mission(&mut payload_s, &shed_cfg, &sens);
    let shed_report =
        MissionForensics::from_events(&tele_s.events()).expect("shed stream reconstructs");
    let shed_storm_fired = shed_report
        .anomalies
        .iter()
        .any(|a| a.kind == "soh-shed-storm");
    let shed_reconciles = shed_report.reconcile().is_empty();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# E13 — Mission forensics: lifecycle ledger reconciliation ({} s chaos, seed {})",
        p.chaos_s, p.seed
    );
    let _ = writeln!(report);
    let _ = writeln!(report, "{}", builtin.render_text());
    let _ = writeln!(
        report,
        "kernel invariance: event {event_json_digest:016x} vs reference {reference_json_digest:016x} ({})",
        if event_json_digest == reference_json_digest {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    let _ = writeln!(
        report,
        "flare share: {:.1}% of {} upsets born inside the flare window",
        flare_share * 100.0,
        builtin.upsets
    );
    for (name, mismatches) in &strategy_mismatches {
        let _ = writeln!(
            report,
            "strategy {name:<14} reconciliation mismatches: {mismatches}"
        );
    }
    let _ = writeln!(
        report,
        "leak mission: {leaked_lifecycles} leaked lifecycles, {leak_anomalies} leak anomalies, reconciles: {leak_reconciles}"
    );
    let _ = writeln!(
        report,
        "shed mission: storm fired: {shed_storm_fired}, reconciles: {shed_reconciles}"
    );

    ForensicsResult {
        builtin,
        builtin_stats,
        event_json_digest,
        reference_json_digest,
        strategy_mismatches,
        flare_share,
        leaked_lifecycles,
        leak_anomalies,
        leak_reconciles,
        shed_storm_fired,
        shed_reconciles,
        report,
    }
}
