//! E6 — **Figs. 11–12**: accelerator validation of the SEU simulator.
//! Beam-observed output errors vs the exhaustive campaign's predictions;
//! the shortfall must be entirely hidden state.

use std::fmt::Write as _;

use cibola::designs::PaperDesign;
use cibola::inject::ErrorCause;
use cibola::prelude::*;

use super::Tier;

#[derive(Debug, Clone)]
pub struct Fig12Params {
    pub geometry: Geometry,
    pub observations: usize,
}

impl Fig12Params {
    /// The `run_experiments.sh` configuration behind
    /// `results/fig12_validation.txt`.
    pub fn paper() -> Self {
        Fig12Params {
            geometry: Geometry::tiny(),
            observations: 2500,
        }
    }

    /// CI-sized: fewer observations. Agreement is a ratio, so it is
    /// noisier but its high-90s shape survives.
    pub fn smoke() -> Self {
        Fig12Params {
            observations: 600,
            ..Fig12Params::paper()
        }
    }

    pub fn for_tier(tier: Tier) -> Self {
        match tier {
            Tier::Smoke => Fig12Params::smoke(),
            Tier::Paper => Fig12Params::paper(),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Fig12Row {
    pub label: String,
    pub strikes: usize,
    pub errors: usize,
    pub predicted: usize,
    pub hidden: usize,
    pub agreement: f64,
}

#[derive(Debug)]
pub struct Fig12Result {
    pub rows: Vec<Fig12Row>,
    pub total_errors: usize,
    pub total_predicted: usize,
    pub total_hidden: usize,
    pub report: String,
}

impl Fig12Result {
    /// Fraction of beam-observed output errors the simulator predicted.
    pub fn aggregate_agreement(&self) -> f64 {
        self.total_predicted as f64 / self.total_errors.max(1) as f64
    }

    /// Errors attributed to neither a predicted configuration bit nor
    /// hidden state — the paper's claim is that this is structurally zero.
    pub fn unattributed_errors(&self) -> usize {
        self.total_errors - self.total_predicted - self.total_hidden
    }
}

pub fn run(p: &Fig12Params) -> Fig12Result {
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# Figs. 11–12 — Accelerator Validation of the SEU Simulator"
    );
    let _ = writeln!(
        report,
        "# {} observations of 0.5 s, flux ≈2 upsets/s, loop time 430 µs",
        p.observations
    );
    let _ = writeln!(
        report,
        "{:<18} | {:>7} | {:>7} | {:>9} | {:>10} | {:>10}",
        "Design", "Strikes", "Errors", "Predicted", "Hidden", "Agreement"
    );
    let _ = writeln!(report, "{}", "-".repeat(78));

    let mut rows = Vec::new();
    let (mut total_err, mut total_pred, mut total_hidden) = (0usize, 0usize, 0usize);
    for (i, d) in [
        PaperDesign::CounterAdder { width: 6 },
        PaperDesign::LfsrScaled {
            clusters: 2,
            bits: 10,
        },
        PaperDesign::Mult { width: 5 },
    ]
    .into_iter()
    .enumerate()
    {
        let nl = d.netlist();
        let imp = implement(&nl, &p.geometry).unwrap();
        let tb = Testbed::new(&imp, 0xBEA3 + i as u64, 40_000);
        let campaign = run_campaign_wide(
            &tb,
            &CampaignConfig {
                observe_cycles: 64,
                classify_persistence: false,
                ..Default::default()
            },
        );
        let map = campaign.sensitive_set();

        let mut beam = ProtonBeam::new(
            BeamConfig {
                upsets_per_second: 2.0,
                mix: TargetMix::default(),
                half_latch_recovery_mean_s: Some(120.0),
            },
            0xACC0 + i as u64,
        );
        let r = beam_validation(
            &tb,
            &mut beam,
            &map,
            &BeamRunConfig {
                observations: p.observations,
                cycles_per_observation: 64,
                ..Default::default()
            },
        );
        let predicted = r
            .error_events
            .iter()
            .filter(|c| **c == ErrorCause::PredictedConfig)
            .count();
        let hidden = r
            .error_events
            .iter()
            .filter(|c| **c == ErrorCause::HiddenState)
            .count();
        total_err += r.error_count();
        total_pred += predicted;
        total_hidden += hidden;
        let strikes = r.config_strikes + r.half_latch_strikes + r.user_ff_strikes + r.fsm_strikes;
        let _ = writeln!(
            report,
            "{:<18} | {:>7} | {:>7} | {:>9} | {:>10} | {:>9.1}%",
            d.label(),
            strikes,
            r.error_count(),
            predicted,
            hidden,
            100.0 * r.agreement(),
        );
        rows.push(Fig12Row {
            label: d.label(),
            strikes,
            errors: r.error_count(),
            predicted,
            hidden,
            agreement: r.agreement(),
        });
    }
    let _ = writeln!(report, "{}", "-".repeat(78));
    let _ = writeln!(
        report,
        "# aggregate agreement: {:.1}% of observed output errors predicted by the simulator",
        100.0 * total_pred as f64 / total_err.max(1) as f64
    );
    let _ = writeln!(
        report,
        "# (paper: 97.6%; the shortfall is hidden state — half-latches, user FFs, the"
    );
    let _ = writeln!(
        report,
        "#  configuration state machine — which no bitstream-corruption simulator can see)"
    );

    Fig12Result {
        rows,
        total_errors: total_err,
        total_predicted: total_pred,
        total_hidden,
        report,
    }
}
