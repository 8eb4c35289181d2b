//! SEU fault-injection campaign: the paper's §III methodology end to end —
//! exhaustive corruption of the configuration bitstream, sensitivity and
//! persistence classification, and the Fig. 7 persistent-error trace.
//!
//! Run with: `cargo run --release -p cibola --example seu_campaign`

use cibola::prelude::*;

fn main() {
    let geom = Geometry::tiny();
    println!(
        "device: {} ({} slices, {} configuration bits)\n",
        geom.name,
        geom.num_slices(),
        cibola::arch::ConfigMemory::new(geom.clone()).total_bits()
    );

    println!(
        "{:<18} {:>8} {:>9} {:>12} {:>12} {:>12}",
        "Design", "Slices", "Failures", "Sensitivity", "Normalized", "Persistence"
    );

    for d in [
        cibola::designs::PaperDesign::LfsrScaled {
            clusters: 2,
            bits: 10,
        },
        cibola::designs::PaperDesign::Mult { width: 5 },
        cibola::designs::PaperDesign::MultAdd { width: 8 },
        cibola::designs::PaperDesign::CounterAdder { width: 8 },
    ] {
        let nl = d.netlist();
        let imp = implement(&nl, &geom).unwrap();
        let tb = Testbed::new(&imp, 0xC1B07A, 160);
        let result = run_campaign_wide(
            &tb,
            &CampaignConfig {
                observe_cycles: 64,
                persist_cycles: 64,
                ..Default::default()
            },
        );
        println!(
            "{:<18} {:>8} {:>9} {:>11.2}% {:>11.2}% {:>11.1}%",
            d.label(),
            format!(
                "{} ({:.0}%)",
                imp.report.slices_used,
                100.0 * imp.report.slice_fraction()
            ),
            result.failures(),
            100.0 * result.sensitivity(),
            100.0 * result.normalized_sensitivity(),
            100.0 * result.persistence_ratio(),
        );
    }

    // Fig. 7: a persistent configuration bit in the counter keeps the
    // design wrong *after* the scrubber repairs the bit; only a reset
    // re-synchronises it.
    println!("\nFig. 7 — errors induced by a persistent configuration bit:");
    let nl = cibola::designs::PaperDesign::CounterAdder { width: 8 }.netlist();
    let imp = implement(&nl, &geom).unwrap();
    let tb = Testbed::new(&imp, 0xC1B07A, 700);
    let campaign = run_campaign_wide(
        &tb,
        &CampaignConfig {
            observe_cycles: 48,
            persist_cycles: 64,
            ..Default::default()
        },
    );
    let bit = campaign.persistent_bits()[0];
    let trace = capture_trace(&tb, bit, TraceSchedule::default());
    println!(
        "  bit {bit}: upset @cycle {}, repaired @{}, reset @{}",
        trace.upset_at, trace.repair_at, trace.reset_at
    );
    for p in trace
        .points
        .iter()
        .filter(|p| (500..=586).contains(&p.cycle) && p.cycle % 6 == 0)
    {
        println!(
            "  cycle {:>4}  expected {:>6}  actual {:>6} {}",
            p.cycle,
            p.expected,
            p.actual,
            if p.mismatch { "✗" } else { "" }
        );
    }
    println!(
        "  errors after repair (before reset): {} — repair alone is not enough",
        trace.errors_after_repair
    );
    println!(
        "  errors after reset: {} — reset re-synchronises",
        trace.errors_after_reset
    );
}
