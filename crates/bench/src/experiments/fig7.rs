//! E3 — **Fig. 7**: errors induced by persistent configuration bits.
//! Upset a counter's persistent bit mid-run; scrub repair does not heal
//! the outputs, reset does.

use std::fmt::Write as _;

use cibola::designs::PaperDesign;
use cibola::prelude::*;

use super::Tier;

#[derive(Debug, Clone)]
pub struct Fig7Params {
    pub geometry: Geometry,
    pub width: usize,
}

impl Fig7Params {
    /// The `run_experiments.sh` configuration behind `results/fig7.txt`.
    pub fn paper() -> Self {
        Fig7Params {
            geometry: Geometry::tiny(),
            width: 8,
        }
    }

    /// The trace experiment is already CI-sized; smoke == paper, so the
    /// golden snapshot doubles as a `results/fig7.txt` regression.
    pub fn smoke() -> Self {
        Fig7Params::paper()
    }

    pub fn for_tier(tier: Tier) -> Self {
        match tier {
            Tier::Smoke => Fig7Params::smoke(),
            Tier::Paper => Fig7Params::paper(),
        }
    }
}

#[derive(Debug)]
pub struct Fig7Result {
    pub bit: usize,
    /// Output mismatches observed strictly before the upset cycle.
    pub errors_before_upset: usize,
    /// Output mismatches in the (scrub repair, reset) window.
    pub errors_after_repair: usize,
    /// Output mismatches after the reset.
    pub errors_after_reset: usize,
    pub report: String,
}

pub fn run(p: &Fig7Params) -> Fig7Result {
    let nl = PaperDesign::CounterAdder { width: p.width }.netlist();
    let imp = implement(&nl, &p.geometry).unwrap();
    let tb = Testbed::new(&imp, 0xF167, 700);

    // Find persistent bits with a quick campaign.
    let campaign = run_campaign_wide(
        &tb,
        &CampaignConfig {
            observe_cycles: 48,
            persist_cycles: 64,
            ..Default::default()
        },
    );
    let persistent = campaign.persistent_bits();
    assert!(
        !persistent.is_empty(),
        "counter design must expose persistent bits"
    );
    // Prefer a bit whose error appears promptly (a counter state bit).
    let bit = campaign
        .sensitive
        .iter()
        .filter(|s| s.persistent)
        .min_by_key(|s| s.first_error_cycle)
        .unwrap()
        .bit;

    let schedule = TraceSchedule {
        upset_at: 502,
        repair_at: 530,
        reset_at: 580,
        total: 640,
    };
    let trace = capture_trace(&tb, bit, schedule);
    let errors_before_upset = trace
        .points
        .iter()
        .filter(|pt| pt.cycle < schedule.upset_at && pt.mismatch)
        .count();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# Fig. 7 — Errors Induced by Persistent Configuration Bits"
    );
    let _ = writeln!(
        report,
        "# design '{}' on {}, configuration bit {bit} ({:?})",
        nl.name,
        p.geometry.name,
        imp.bitstream.describe(bit)
    );
    let _ = writeln!(
        report,
        "# upset @{} | scrub repair @{} | reset @{}",
        schedule.upset_at, schedule.repair_at, schedule.reset_at
    );
    let _ = writeln!(report, "cycle,expected,actual,mismatch");
    for pt in &trace.points {
        if pt.cycle >= 490 {
            let _ = writeln!(
                report,
                "{},{},{},{}",
                pt.cycle, pt.expected, pt.actual, pt.mismatch as u8
            );
        }
    }
    let _ = writeln!(
        report,
        "# errors in (repair, reset): {} — repairing the bit did NOT heal the design",
        trace.errors_after_repair
    );
    let _ = writeln!(
        report,
        "# errors after reset: {} — the reset re-synchronised it (paper: \"The design must be reset\")",
        trace.errors_after_reset
    );

    Fig7Result {
        bit,
        errors_before_upset,
        errors_after_repair: trace.errors_after_repair,
        errors_after_reset: trace.errors_after_reset,
        report,
    }
}
