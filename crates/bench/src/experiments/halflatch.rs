//! E7 — §III-C: half-latch mitigation (RadDRC) under beam. Hard-failure
//! counts for an unmitigated vs mitigated design; the paper's ≈100×.

use std::fmt::Write as _;

use cibola::designs::PaperDesign;
use cibola::inject::ErrorCause;
use cibola::prelude::*;

use super::Tier;

/// Per-half-latch-site strike cross-section, as a fraction of the device
/// total. Deliberately accelerated (the Crocker runs drove fluence until
/// failures accumulated); only the unmitigated/mitigated *ratio* matters,
/// and the per-site scaling makes it track the design's half-latch count,
/// as the paper's flight designs ("hundreds to thousands") did.
const SIGMA_PER_SITE: f64 = 1.0e-4;
/// Configuration-FSM cross-section (rare; upsets "unprogram" the device).
const SIGMA_FSM: f64 = 2.0e-5;

fn mix_for(half_latch_sites: usize) -> TargetMix {
    let hl = half_latch_sites as f64 * SIGMA_PER_SITE;
    TargetMix {
        config_bits: 1.0 - hl - SIGMA_FSM,
        half_latches: hl,
        user_ffs: 0.0,
        config_fsm: SIGMA_FSM,
    }
}

#[derive(Debug, Clone)]
pub struct HalflatchParams {
    pub geometry: Geometry,
    pub observations: usize,
}

impl HalflatchParams {
    /// The `run_experiments.sh` configuration behind
    /// `results/halflatch_mitigation.txt`.
    pub fn paper() -> Self {
        HalflatchParams {
            geometry: Geometry::tiny(),
            observations: 12_000,
        }
    }

    /// CI-sized: fewer observations; the unmitigated design still
    /// accumulates hard failures while the mitigated one stays clean.
    pub fn smoke() -> Self {
        HalflatchParams {
            observations: 3_000,
            ..HalflatchParams::paper()
        }
    }

    pub fn for_tier(tier: Tier) -> Self {
        match tier {
            Tier::Smoke => HalflatchParams::smoke(),
            Tier::Paper => HalflatchParams::paper(),
        }
    }
}

#[derive(Debug)]
pub struct HalflatchResult {
    pub unmitigated_hard: usize,
    pub mitigated_hard: usize,
    pub report: String,
}

impl HalflatchResult {
    /// Laplace-smoothed hard-failure resistance improvement; with zero
    /// mitigated hard failures the run gives a lower bound.
    pub fn improvement(&self) -> f64 {
        self.unmitigated_hard as f64 / (self.mitigated_hard as f64).max(1.0)
    }
}

fn run_one(
    report: &mut String,
    name: &str,
    nl: &cibola::netlist::Netlist,
    geom: &Geometry,
    observations: usize,
    seed: u64,
) -> usize {
    let imp = implement(nl, geom).unwrap();
    let mut dev = Device::new(geom.clone());
    dev.configure_full(&imp.bitstream);
    let sites = dev.network_stats().half_latch_sites;

    let tb = Testbed::new(&imp, 0x1A7C4, 40_000);
    let campaign = run_campaign_wide(
        &tb,
        &CampaignConfig {
            observe_cycles: 64,
            classify_persistence: false,
            ..Default::default()
        },
    );
    let mut beam = ProtonBeam::new(
        BeamConfig {
            upsets_per_second: 2.0,
            mix: mix_for(sites),
            half_latch_recovery_mean_s: None,
        },
        seed,
    );
    let r = beam_validation(
        &tb,
        &mut beam,
        &campaign.sensitive_set(),
        &BeamRunConfig {
            observations,
            cycles_per_observation: 64,
            ..Default::default()
        },
    );
    let hard = r
        .error_events
        .iter()
        .filter(|c| **c == ErrorCause::HiddenState)
        .count()
        + r.fsm_strikes;
    let strikes = r.config_strikes + r.half_latch_strikes + r.user_ff_strikes + r.fsm_strikes;
    let _ = writeln!(
        report,
        "{:<28} {:>5} half-latches | {:>6} strikes | {:>5} scrub-repairable errors | {:>4} HARD failures",
        name,
        sites,
        strikes,
        r.error_count() - hard.min(r.error_count()),
        hard,
    );
    hard
}

pub fn run(p: &HalflatchParams) -> HalflatchResult {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# §III-C — Half-Latch Mitigation Under Beam (scrubbing active)"
    );
    let nl = PaperDesign::CounterAdder { width: 10 }.netlist();
    let (mit, rewire) = remove_half_latches(&nl, ConstSource::LutRom, true);
    let _ = writeln!(
        report,
        "# RadDRC rewired {} control pins, tied {} LUT pins, added {} constant generators\n",
        rewire.total_rewired(),
        rewire.lut_pins_tied,
        rewire.const_cells_added
    );

    let hard_u = run_one(
        &mut report,
        "unmitigated",
        &nl,
        &p.geometry,
        p.observations,
        0xD00D,
    );
    let hard_m = run_one(
        &mut report,
        "RadDRC-mitigated",
        &mit,
        &p.geometry,
        p.observations,
        0xD00D,
    );

    let result = HalflatchResult {
        unmitigated_hard: hard_u,
        mitigated_hard: hard_m,
        report: String::new(),
    };
    let _ = writeln!(
        report,
        "\n# hard-failure resistance improvement: {}{:.0}× (paper: ≈100×){}",
        if hard_m == 0 { "≥" } else { "" },
        result.improvement(),
        if hard_m == 0 {
            format!(" — mitigated design suffered 0 hard failures vs {hard_u}")
        } else {
            String::new()
        }
    );

    HalflatchResult { report, ..result }
}
