//! E4 — **Fig. 4** and §II-A timing: the flight-geometry scan-cycle claim
//! (≈180 ms for a board of three XQVR1000s) plus an accelerated mission
//! measuring detection latency and availability.

use std::collections::HashMap;
use std::fmt::Write as _;

use cibola::designs::PaperDesign;
use cibola::prelude::*;

use super::Tier;

#[derive(Debug, Clone)]
pub struct Fig4Params {
    pub geometry: Geometry,
    pub hours: u64,
    pub accel: f64,
}

impl Fig4Params {
    /// The `run_experiments.sh` configuration behind `results/fig4_scrub.txt`.
    pub fn paper() -> Self {
        Fig4Params {
            geometry: Geometry::tiny(),
            hours: 12,
            accel: 200.0,
        }
    }

    /// CI-sized: two simulated hours (the scan-cycle part is geometry
    /// arithmetic and identical at both tiers).
    pub fn smoke() -> Self {
        Fig4Params {
            hours: 2,
            ..Fig4Params::paper()
        }
    }

    pub fn for_tier(tier: Tier) -> Self {
        match tier {
            Tier::Smoke => Fig4Params::smoke(),
            Tier::Paper => Fig4Params::paper(),
        }
    }
}

#[derive(Debug)]
pub struct Fig4Result {
    /// Scan cycle for 3 × XQVR1000, in milliseconds (paper: ≈180 ms).
    pub flight_scan_ms: f64,
    pub stats: cibola::scrub::MissionStats,
    pub report: String,
}

pub fn run(p: &Fig4Params) -> Fig4Result {
    let mut report = String::new();

    // Part 1: the 180 ms claim, at true flight scale.
    let flight = Geometry::xqvr1000();
    let blank = ConfigMemory::new(flight.clone());
    let mut payload = Payload::new();
    for _ in 0..3 {
        payload.load_design(0, "radio-app", &flight, &blank);
    }
    let cycle = payload.board_scan_cycle(0);
    let _ = writeln!(
        report,
        "# Fig. 4 — On-Orbit SEU-Induced Fault Detection and Correction"
    );
    let _ = writeln!(
        report,
        "scan cycle for 3 × {}: {} (paper: ≈180 ms)",
        flight.name, cycle
    );
    let frames = blank.frame_count();
    let _ = writeln!(
        report,
        "  per device: {frames} frames, {:.1} Mbit of configuration",
        blank.total_bits() as f64 / 1e6
    );

    // Part 2: detection latency and availability, accelerated environment
    // on a demo-scale device.
    let geom = &p.geometry;
    let nl = PaperDesign::CounterAdder { width: 6 }.netlist();
    let imp = implement(&nl, geom).unwrap();
    let tb = Testbed::new(&imp, 11, 64);
    let campaign = run_campaign_wide(
        &tb,
        &CampaignConfig {
            observe_cycles: 32,
            classify_persistence: false,
            ..Default::default()
        },
    );

    let mut payload = Payload::new();
    let mut sens = HashMap::new();
    for board in 0..3 {
        for _ in 0..3 {
            let pos = payload.load_design(board, "ctr", geom, &imp.bitstream);
            sens.insert(pos, campaign.sensitive_set());
        }
    }
    let (hours, accel) = (p.hours, p.accel);
    let stats = run_mission(
        &mut payload,
        &MissionConfig {
            duration: SimDuration::from_secs(hours * 3600),
            rates: OrbitRates {
                quiet_per_hour: 1.2 * accel,
                flare_per_hour: 9.6 * accel,
                devices: 9,
            },
            flare: Some((
                SimTime::from_secs(hours * 3600 / 3),
                SimTime::from_secs(hours * 3600 / 2),
            )),
            periodic_full_reconfig: Some(SimDuration::from_secs(1800)),
            ..Default::default()
        },
        &sens,
    );

    let _ = writeln!(
        report,
        "\n# Mission ({hours} h simulated, {accel}× accelerated environment, 9 FPGAs)"
    );
    let _ = writeln!(
        report,
        "upsets: {} (config {}, masked {}, half-latch {}, user-FF {}, FSM {})",
        stats.upsets_total,
        stats.upsets_config,
        stats.upsets_config_masked,
        stats.upsets_half_latch,
        stats.upsets_user_ff,
        stats.upsets_fsm
    );
    let _ = writeln!(
        report,
        "scrubber: {} frame repairs, {} full reconfigurations, {} scan cycles of {:.1} ms",
        stats.frames_repaired, stats.full_reconfigs, stats.scrub_cycles, stats.scan_cycle_ms
    );
    let _ = writeln!(
        report,
        "detection latency: mean {:.1} ms / max {:.1} ms (bounded by the scan cadence)",
        stats.detect_latency_mean_ms, stats.detect_latency_max_ms
    );
    let _ = writeln!(report, "availability: {:.6}", stats.availability);
    let _ = writeln!(report, "state-of-health records: {}", stats.soh_records);

    Fig4Result {
        flight_scan_ms: cycle.as_secs_f64() * 1e3,
        stats,
        report,
    }
}
