//! E12 — the mitigation-strategy zoo compared under one chaos mission:
//! readback ladder, voted configuration redundancy, intermodular
//! (shared-controller) scrubbing, blind scrubbing, and the adaptive
//! auto-tuning scrubber, all flown by the same round loop over the same
//! upset/SEFI stream, plus a quiet mission contrasting the adaptive
//! controller against the fixed-rate ladder. The chaos mission is also
//! flown every round for four of the five members, and once more by a
//! voter whose shadow-chaos hook forces the FLASH fallback.

use std::fmt::Write as _;

use cibola::prelude::*;
use cibola::radiation::sefi::{SefiMix, SefiRates};
use cibola::radiation::SefiConfig;
use cibola::scrub::{
    make_strategy, run_strategy_mission, run_strategy_mission_reference, AdaptiveConfig,
    AdaptiveScrub, LadderStrategy, MitigationStrategy, StrategyMissionStats, VotedRedundancy,
    STRATEGY_NAMES,
};

use super::Tier;
use crate::conformance::{corpus_payload, sparse_sensitivity};

#[derive(Debug, Clone)]
pub struct StrategiesParams {
    pub geometry: Geometry,
    /// Chaos-mission duration, seconds.
    pub chaos_s: u64,
    /// Quiet-mission duration, seconds (the adaptive-vs-fixed contrast).
    pub quiet_s: u64,
    pub seed: u64,
}

impl StrategiesParams {
    pub fn paper() -> Self {
        StrategiesParams {
            geometry: Geometry::tiny(),
            chaos_s: 1800,
            quiet_s: 7200,
            seed: 42,
        }
    }

    pub fn smoke() -> Self {
        StrategiesParams {
            chaos_s: 450,
            quiet_s: 1800,
            ..StrategiesParams::paper()
        }
    }

    pub fn for_tier(tier: Tier) -> Self {
        match tier {
            Tier::Smoke => StrategiesParams::smoke(),
            Tier::Paper => StrategiesParams::paper(),
        }
    }
}

/// One strategy's row in the comparison.
#[derive(Debug)]
pub struct StrategyRow {
    pub name: &'static str,
    pub stats: StrategyMissionStats,
    /// FLASH ECC words read over the mission (golden-image wear).
    pub flash_words_read: usize,
}

/// The chaos-mission rows also flown every round. Blind is left out: its
/// every-round mission rewrites every frame of every device each round,
/// which costs seconds, and the corpus's `strat-blind` rows already
/// compare its two modes.
pub const REFERENCE_CHECKED: [&str; 4] = ["ladder", "voted", "intermodular", "adaptive"];

/// The voter's shadow-chaos period in the fallback row: flip the same
/// bit of both shadows before every 4th vote.
pub const VOTED_CHAOS_EVERY: u64 = 4;

#[derive(Debug)]
pub struct StrategiesResult {
    /// Chaos-mission rows, in `STRATEGY_NAMES` order.
    pub rows: Vec<StrategyRow>,
    /// For each [`REFERENCE_CHECKED`] name: does its chaos mission flown
    /// every round equal its event-driven row, in `StrategyMissionStats`
    /// and in SOH records logged?
    pub reference_matches: Vec<(&'static str, bool)>,
    /// The chaos mission flown by `VotedRedundancy::with_shadow_chaos`
    /// (not one of `rows`): the voter's disagreement and FLASH-fallback
    /// path, which the hook-free voter never reaches.
    pub voted_chaos: StrategyRow,
    /// Quiet mission: fixed-rate ladder vs the adaptive controller.
    pub quiet_fixed: StrategyMissionStats,
    pub quiet_adaptive: StrategyMissionStats,
    /// The adaptive ceiling used for the quiet mission.
    pub quiet_ceiling: u64,
    pub report: String,
}

impl StrategiesResult {
    pub fn row(&self, name: &str) -> &StrategyRow {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no strategy row {name:?}"))
    }
}

fn chaos_config(p: &StrategiesParams) -> MissionConfig {
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
                quiet_per_hour: 6.7,
                flare_per_hour: 53.0,
                devices: 9,
            },
            mix: SefiMix::default(),
        }),
        seed: p.seed,
        ..Default::default()
    }
}

/// Fly `strategy` over the chaos mission on a fresh payload, event-driven
/// or every round; returns the row and the SOH records logged.
fn fly_chaos(
    p: &StrategiesParams,
    name: &'static str,
    strategy: &mut dyn MitigationStrategy,
    event_driven: bool,
) -> (StrategyRow, usize) {
    let mut payload = corpus_payload(&p.geometry);
    let (chaos, sens) = (chaos_config(p), sparse_sensitivity());
    let stats = if event_driven {
        run_strategy_mission(&mut payload, &chaos, &sens, strategy)
    } else {
        run_strategy_mission_reference(&mut payload, &chaos, &sens, strategy)
    };
    let row = StrategyRow {
        name,
        stats,
        flash_words_read: payload.ecc_stats.words_read,
    };
    (row, payload.soh.len())
}

fn quiet_config(p: &StrategiesParams) -> MissionConfig {
    MissionConfig {
        duration: SimDuration::from_secs(p.quiet_s),
        rates: OrbitRates::default(),
        seed: p.seed ^ 0x9E37,
        ..Default::default()
    }
}

pub fn run(p: &StrategiesParams) -> StrategiesResult {
    let geom = &p.geometry;

    let mut rows = Vec::new();
    let mut reference_matches = Vec::new();
    for name in STRATEGY_NAMES {
        let (row, soh) = fly_chaos(p, name, make_strategy(name).as_mut(), true);
        if REFERENCE_CHECKED.contains(&name) {
            let (reference, ref_soh) = fly_chaos(p, name, make_strategy(name).as_mut(), false);
            reference_matches.push((name, reference.stats == row.stats && ref_soh == soh));
        }
        rows.push(row);
    }
    let mut hooked = VotedRedundancy::with_shadow_chaos(VOTED_CHAOS_EVERY);
    let (voted_chaos, _) = fly_chaos(p, "voted-chaos", &mut hooked, true);

    // Quiet contrast: fixed-rate ladder vs the adaptive controller.
    let quiet = quiet_config(p);
    let quiet_ceiling = 16u64;
    let sens_q = sparse_sensitivity();
    let mut p_fixed = corpus_payload(geom);
    let mut fixed = LadderStrategy;
    let quiet_fixed = run_strategy_mission(&mut p_fixed, &quiet, &sens_q, &mut fixed);
    let mut p_adapt = corpus_payload(geom);
    let mut adaptive = AdaptiveScrub::new(
        LadderStrategy,
        AdaptiveConfig {
            window_rounds: 256,
            k_ceiling: quiet_ceiling,
            ..Default::default()
        },
    );
    let quiet_adaptive = run_strategy_mission(&mut p_adapt, &quiet, &sens_q, &mut adaptive);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# E12 — Mitigation-strategy comparison (chaos mission, {} s, seed {})",
        p.chaos_s, p.seed
    );
    let _ = writeln!(
        report,
        "{:<14} {:>7} {:>8} {:>9} {:>12} {:>11} {:>12} {:>12}",
        "strategy",
        "avail",
        "repairs",
        "mttr_ms",
        "flash_words",
        "blind_wr",
        "queue_wait",
        "busy_ms"
    );
    for r in &rows {
        let m = &r.stats.mission;
        let s = &r.stats.strategy;
        let _ = writeln!(
            report,
            "{:<14} {:>7.4} {:>8} {:>9.3} {:>12} {:>11} {:>12} {:>12.1}",
            r.name,
            m.availability,
            m.frames_repaired,
            m.detect_latency_mean_ms,
            r.flash_words_read,
            s.blind_writes,
            s.queue_wait_rounds,
            r.stats.scrub_busy_ns as f64 / 1e6,
        );
    }
    let _ = writeln!(report);
    let _ = writeln!(
        report,
        "event-driven vs every-round reference ({}): {}",
        REFERENCE_CHECKED.join(", "),
        if reference_matches.iter().all(|&(_, m)| m) {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    let voted = rows.iter().find(|r| r.name == "voted").unwrap();
    for (label, row) in [
        ("voted".to_string(), voted),
        (
            format!("voted, shadow chaos every {VOTED_CHAOS_EVERY} votes"),
            &voted_chaos,
        ),
    ] {
        let s = &row.stats.strategy;
        let _ = writeln!(
            report,
            "{label}: {} majority repairs, {} disagreements, {} golden fallbacks, {} shadow heals",
            s.voted_repairs, s.voter_disagreements, s.voter_fallbacks, s.shadow_refreshes,
        );
    }
    let _ = writeln!(
        report,
        "quiet mission ({} s): fixed ladder busy {:.1} ms vs adaptive busy {:.1} ms \
         (final period {}x, {} retunes)",
        p.quiet_s,
        quiet_fixed.scrub_busy_ns as f64 / 1e6,
        quiet_adaptive.scrub_busy_ns as f64 / 1e6,
        quiet_adaptive.strategy.final_scrub_every,
        quiet_adaptive.strategy.retunes,
    );

    StrategiesResult {
        rows,
        reference_matches,
        voted_chaos,
        quiet_fixed,
        quiet_adaptive,
        quiet_ceiling,
        report,
    }
}
