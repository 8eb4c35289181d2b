//! The strategy-zoo test suite.
//!
//! Three pillars:
//!
//! 1. **Differential** — for every strategy in the zoo, the event-driven
//!    `run_strategy_mission` must produce `StrategyMissionStats` *exactly*
//!    equal (`PartialEq`, float for float) to the round-ticking
//!    `run_strategy_mission_reference`, across fixed seeds and a proptest
//!    sweep, under SEFI/port-fault chaos.
//! 2. **Anchor** — driving `LadderStrategy` through the strategy seam is
//!    bit-identical to the plain `run_mission` kernel, so the refactor
//!    provably changed nothing for the paper's baseline; and an
//!    `AdaptiveScrub` whose clamp is pinned at k = 1 flies the ladder's
//!    mission exactly, strategy counters included.
//! 3. **Adaptive edge cases** — zero upsets (period climbs to the
//!    ceiling, no divide-by-zero), flare saturation (clamp plus bounded
//!    anti-windup recovery), and deterministic voter tie-breaking under
//!    shadow chaos.

use std::collections::{HashMap, HashSet};

use cibola_arch::{Geometry, SimDuration, SimTime};
use cibola_mitigate::{
    make_strategy, run_strategy_mission, run_strategy_mission_reference, AdaptiveConfig,
    AdaptiveScrub, LadderStrategy, VotedRedundancy, STRATEGY_NAMES,
};
use cibola_netlist::{gen, implement};
use cibola_radiation::sefi::{SefiMix, SefiRates};
use cibola_radiation::{OrbitRates, SefiConfig};
use cibola_scrub::{run_mission, MissionConfig, Payload};
use proptest::prelude::*;

fn nine_fpga_payload(geom: &Geometry) -> Payload {
    let imp = implement(&gen::counter_adder(4), geom).expect("implementation fits tiny geometry");
    let mut payload = Payload::new();
    for board in 0..3 {
        for _ in 0..3 {
            payload.load_design(board, "ctr", geom, &imp.bitstream);
        }
    }
    payload
}

fn sparse_sensitivity() -> HashMap<(usize, usize), HashSet<usize>> {
    let mut m = HashMap::new();
    m.insert((0, 0), (0..64usize).collect::<HashSet<_>>());
    m.insert((1, 2), HashSet::new());
    m
}

fn sefi_config() -> SefiConfig {
    SefiConfig {
        rates: SefiRates {
            quiet_per_hour: 6.7,
            flare_per_hour: 53.0,
            devices: 9,
        },
        mix: SefiMix::default(),
    }
}

fn storm_rates() -> OrbitRates {
    OrbitRates {
        quiet_per_hour: 400.0,
        flare_per_hour: 3200.0,
        devices: 9,
    }
}

/// The chaos regime every strategy must survive bit-identically: flare
/// storm, SEFI processes against the fault-management path, and periodic
/// full reconfiguration all active at once.
fn chaos_config(seed: u64) -> MissionConfig {
    MissionConfig {
        duration: SimDuration::from_secs(450),
        rates: storm_rates(),
        flare: Some((SimTime::from_secs(120), SimTime::from_secs(240))),
        periodic_full_reconfig: Some(SimDuration::from_secs(200)),
        sefi: Some(sefi_config()),
        seed,
        ..Default::default()
    }
}

/// A paper-scale quiet regime: long jumps, final-partial-round edges.
fn quiet_config(seed: u64) -> MissionConfig {
    MissionConfig {
        duration: SimDuration::from_secs(1800),
        rates: OrbitRates::default(),
        seed,
        ..Default::default()
    }
}

/// Event-driven vs reference drivers for one named strategy and config —
/// stats and SOH history must be bit-identical.
fn assert_strategy_equivalence(name: &str, cfg: &MissionConfig) {
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();
    let mut p_event = nine_fpga_payload(&geom);
    let mut p_ref = nine_fpga_payload(&geom);
    let mut s_event = make_strategy(name);
    let mut s_ref = make_strategy(name);

    let event = run_strategy_mission(&mut p_event, cfg, &sens, s_event.as_mut());
    let reference = run_strategy_mission_reference(&mut p_ref, cfg, &sens, s_ref.as_mut());

    assert_eq!(
        event, reference,
        "strategy {name:?} seed {} diverged between drivers",
        cfg.seed
    );
    assert_eq!(
        p_event.soh.len(),
        p_ref.soh.len(),
        "strategy {name:?} seed {} SOH history diverged",
        cfg.seed
    );
}

#[test]
fn every_strategy_is_driver_equivalent_under_chaos() {
    for seed in [1u64, 42, u64::MAX] {
        for name in STRATEGY_NAMES {
            assert_strategy_equivalence(name, &chaos_config(seed));
        }
    }
}

#[test]
fn every_strategy_is_driver_equivalent_when_quiet() {
    for name in STRATEGY_NAMES {
        assert_strategy_equivalence(name, &quiet_config(7));
    }
}

#[test]
fn voted_with_shadow_chaos_is_driver_equivalent() {
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();
    for seed in [1u64, 42] {
        let cfg = chaos_config(seed);
        let mut p_event = nine_fpga_payload(&geom);
        let mut p_ref = nine_fpga_payload(&geom);
        let mut s_event = VotedRedundancy::with_shadow_chaos(2);
        let mut s_ref = VotedRedundancy::with_shadow_chaos(2);
        let event = run_strategy_mission(&mut p_event, &cfg, &sens, &mut s_event);
        let reference = run_strategy_mission_reference(&mut p_ref, &cfg, &sens, &mut s_ref);
        assert_eq!(event, reference, "voted+chaos seed {seed} diverged");
        assert_eq!(p_event.soh.len(), p_ref.soh.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seed sweep over the chaos regime for the two strategies with the
    /// most bespoke per-round machinery (the others are exercised by the
    /// fixed-seed sweep above and the conformance corpus).
    #[test]
    fn prop_voted_and_blind_driver_equivalent(seed in any::<u64>()) {
        let cfg = chaos_config(seed);
        assert_strategy_equivalence("voted", &cfg);
        assert_strategy_equivalence("blind", &cfg);
    }
}

// ---------------------------------------------------------------------
// The anchor: ladder strategy == plain mission kernel
// ---------------------------------------------------------------------

#[test]
fn ladder_strategy_matches_plain_mission_bit_identically() {
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();
    for cfg in [chaos_config(42), quiet_config(9), chaos_config(u64::MAX)] {
        let mut p_plain = nine_fpga_payload(&geom);
        let mut p_strat = nine_fpga_payload(&geom);
        let plain = run_mission(&mut p_plain, &cfg, &sens);
        let mut ladder = LadderStrategy;
        let strat = run_strategy_mission(&mut p_strat, &cfg, &sens, &mut ladder);
        assert_eq!(
            strat.mission, plain,
            "ladder strategy diverged from run_mission (seed {})",
            cfg.seed
        );
        assert_eq!(p_plain.soh.len(), p_strat.soh.len());

        // The adaptive controller with its clamp pinned at k = 1 can never
        // retune, so it flies the ladder's mission exactly.
        let mut p_pinned = nine_fpga_payload(&geom);
        let mut pinned = AdaptiveScrub::new(
            LadderStrategy,
            AdaptiveConfig {
                k_floor: 1,
                k_ceiling: 1,
                ..Default::default()
            },
        );
        let pinned = run_strategy_mission(&mut p_pinned, &cfg, &sens, &mut pinned);
        assert_eq!(
            pinned, strat,
            "pinned adaptive controller diverged from the ladder (seed {})",
            cfg.seed
        );
    }
}

// ---------------------------------------------------------------------
// Adaptive edge cases
// ---------------------------------------------------------------------

/// Arrival rates so low the first upset lands far beyond mission end
/// (the environment requires strictly positive rates).
fn dead_calm_rates() -> OrbitRates {
    OrbitRates {
        quiet_per_hour: 1e-9,
        flare_per_hour: 1e-9,
        devices: 9,
    }
}

#[test]
fn adaptive_zero_upsets_climbs_to_ceiling_without_nan() {
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();
    let cfg = MissionConfig {
        duration: SimDuration::from_secs(1800),
        rates: dead_calm_rates(),
        seed: 3,
        ..Default::default()
    };
    let acfg = AdaptiveConfig {
        window_rounds: 64,
        k_ceiling: 16,
        ..Default::default()
    };
    let mut payload = nine_fpga_payload(&geom);
    let mut s = AdaptiveScrub::new(LadderStrategy, acfg);
    let out = run_strategy_mission(&mut payload, &cfg, &sens, &mut s);

    assert_eq!(out.mission.upsets_total, 0, "dead-calm mission saw upsets");
    assert_eq!(
        out.strategy.final_scrub_every, 16,
        "quiet mission must coast at the ceiling"
    );
    assert!(out.strategy.retunes >= 1);
    assert_eq!(out.strategy.min_scrub_every, 1, "started at the floor");
    for (name, v) in out.summary_fields() {
        assert!(v.is_finite(), "field {name} is not finite: {v}");
    }
}

#[test]
fn adaptive_flare_saturation_drops_then_recovers() {
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();
    // A savage flare mid-mission: the controller must drop to the floor
    // during it (clamp), and — because the EWMA *input* is clamped, not
    // the accumulated state — recover back to the ceiling afterwards
    // within bounded windows instead of staying wedged (anti-windup).
    // The quiet rate walks arrivals into the flare window (the regime
    // only switches when an arrival lands inside it), yet stays low
    // enough that quiet windows target the ceiling.
    let cfg = MissionConfig {
        duration: SimDuration::from_secs(1800),
        rates: OrbitRates {
            quiet_per_hour: 60.0,
            flare_per_hour: 400_000.0,
            devices: 9,
        },
        flare: Some((SimTime::from_secs(300), SimTime::from_secs(420))),
        seed: 11,
        ..Default::default()
    };
    let acfg = AdaptiveConfig {
        window_rounds: 256,
        k_ceiling: 16,
        ..Default::default()
    };
    let mut payload = nine_fpga_payload(&geom);
    let mut s = AdaptiveScrub::new(LadderStrategy, acfg);
    let out = run_strategy_mission(&mut payload, &cfg, &sens, &mut s);

    assert!(out.mission.upsets_total > 100, "flare did not saturate");
    assert_eq!(
        out.strategy.min_scrub_every, 1,
        "controller must clamp to the floor during the flare"
    );
    assert_eq!(
        out.strategy.final_scrub_every, 16,
        "controller stayed wedged after the flare (anti-windup failed): {:?}",
        out.strategy
    );
    assert_eq!(out.strategy.max_scrub_every, 16);
    // Rising 1→16 by doubling alone is exactly 4 retunes; ≥ 6 proves a
    // mid-mission drop *and* a recovery happened on top of the climb.
    assert!(
        out.strategy.retunes >= 6,
        "expected rise, drop and recovery retunes, got {}",
        out.strategy.retunes
    );
}

#[test]
fn adaptive_event_vs_reference_with_flare() {
    // The retune trajectory itself must be driver-independent.
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();
    let cfg = MissionConfig {
        duration: SimDuration::from_secs(600),
        rates: storm_rates(),
        flare: Some((SimTime::from_secs(150), SimTime::from_secs(350))),
        sefi: Some(sefi_config()),
        seed: 5,
        ..Default::default()
    };
    let acfg = AdaptiveConfig {
        window_rounds: 128,
        k_ceiling: 8,
        ..Default::default()
    };
    let mut p_event = nine_fpga_payload(&geom);
    let mut p_ref = nine_fpga_payload(&geom);
    let mut s_event = AdaptiveScrub::new(LadderStrategy, acfg);
    let mut s_ref = AdaptiveScrub::new(LadderStrategy, acfg);
    let event = run_strategy_mission(&mut p_event, &cfg, &sens, &mut s_event);
    let reference = run_strategy_mission_reference(&mut p_ref, &cfg, &sens, &mut s_ref);
    assert_eq!(event, reference);
    assert_eq!(p_event.soh.len(), p_ref.soh.len());
}

// ---------------------------------------------------------------------
// Voter determinism under shadow chaos
// ---------------------------------------------------------------------

#[test]
fn voter_disagreement_tiebreak_is_deterministic() {
    // Identical seed + shadow-chaos cadence → identical mission, run to
    // run — the 3-way-disagreement fallback must not depend on ambient
    // state (hash order, allocation addresses, wall clock).
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();
    let cfg = chaos_config(1234);
    let run = || {
        let mut payload = nine_fpga_payload(&geom);
        let mut s = VotedRedundancy::with_shadow_chaos(1);
        let out = run_strategy_mission(&mut payload, &cfg, &sens, &mut s);
        (out, payload.soh.len())
    };
    let (a, soh_a) = run();
    let (b, soh_b) = run();
    assert_eq!(a, b, "voted strategy is not run-to-run deterministic");
    assert_eq!(soh_a, soh_b);
    assert!(
        a.strategy.shadow_upsets > 0,
        "chaos hook never fired: {:?}",
        a.strategy
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn prop_voter_chaos_cadence_deterministic(seed in any::<u64>(), every in 1u64..4) {
        let geom = Geometry::tiny();
        let sens = sparse_sensitivity();
        let cfg = chaos_config(seed);
        let run = || {
            let mut payload = nine_fpga_payload(&geom);
            let mut s = VotedRedundancy::with_shadow_chaos(every);
            run_strategy_mission(&mut payload, &cfg, &sens, &mut s)
        };
        prop_assert_eq!(run(), run());
    }
}

// ---------------------------------------------------------------------
// Chaos survival: every strategy finishes with the lights on
// ---------------------------------------------------------------------

#[test]
fn every_strategy_survives_chaos_with_availability() {
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();
    for name in STRATEGY_NAMES {
        let mut payload = nine_fpga_payload(&geom);
        let mut s = make_strategy(name);
        let out = run_strategy_mission(&mut payload, &chaos_config(77), &sens, s.as_mut());
        assert!(
            out.mission.availability > 0.5,
            "strategy {name:?} availability collapsed: {}",
            out.mission.availability
        );
        assert!(
            out.mission.sefis_injected > 0,
            "chaos regime was not chaotic"
        );
        assert!(out.scrub_busy_ns > 0);
        for (field, v) in out.summary_fields() {
            assert!(v.is_finite(), "{name}: field {field} not finite");
        }
    }
}
