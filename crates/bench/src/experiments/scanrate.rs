//! A2 — scan cadence vs availability (§II-A): stretching the Actel's
//! per-frame overhead stretches the scan cycle; detection latency must
//! track it and availability must degrade.

use std::collections::HashMap;
use std::fmt::Write as _;

use cibola::designs::PaperDesign;
use cibola::prelude::*;

use super::Tier;

/// Per-frame overheads swept, in microseconds.
pub const OVERHEADS_US: [u64; 4] = [5, 50, 500, 5000];

#[derive(Debug, Clone)]
pub struct ScanrateParams {
    pub geometry: Geometry,
    pub hours: u64,
}

impl ScanrateParams {
    /// The `run_experiments.sh` configuration behind
    /// `results/ablation_scanrate.txt`.
    pub fn paper() -> Self {
        ScanrateParams {
            geometry: Geometry::tiny(),
            hours: 4,
        }
    }

    /// CI-sized: one simulated hour per sweep point.
    pub fn smoke() -> Self {
        ScanrateParams {
            hours: 1,
            ..ScanrateParams::paper()
        }
    }

    pub fn for_tier(tier: Tier) -> Self {
        match tier {
            Tier::Smoke => ScanrateParams::smoke(),
            Tier::Paper => ScanrateParams::paper(),
        }
    }
}

#[derive(Debug, Clone)]
pub struct ScanrateRow {
    pub overhead_us: u64,
    pub scan_cycle_ms: f64,
    pub latency_mean_ms: f64,
    pub latency_max_ms: f64,
    pub availability: f64,
}

#[derive(Debug)]
pub struct ScanrateResult {
    pub rows: Vec<ScanrateRow>,
    pub report: String,
}

impl ScanrateResult {
    /// Availability at the slowest cadence vs the fastest.
    pub fn availability_drop(&self) -> f64 {
        match (self.rows.first(), self.rows.last()) {
            (Some(a), Some(b)) if self.rows.len() >= 2 => a.availability - b.availability,
            _ => f64::NAN,
        }
    }
}

pub fn run(p: &ScanrateParams) -> ScanrateResult {
    let geom = &p.geometry;
    let hours = p.hours;

    let nl = PaperDesign::CounterAdder { width: 6 }.netlist();
    let imp = implement(&nl, geom).unwrap();
    let tb = Testbed::new(&imp, 0xAB1A, 64);
    let campaign = run_campaign_wide(
        &tb,
        &CampaignConfig {
            observe_cycles: 32,
            classify_persistence: false,
            ..Default::default()
        },
    );

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# Ablation — scan-cadence vs availability ({hours} h, 9 FPGAs)"
    );
    let _ = writeln!(
        report,
        "{:>18} | {:>12} | {:>15} | {:>15} | {:>12}",
        "per-frame overhead", "scan cycle", "mean latency", "max latency", "availability"
    );
    let _ = writeln!(report, "{}", "-".repeat(84));

    // Slow the Actel's per-frame processing to stretch the scan cycle.
    let mut rows = Vec::new();
    for overhead_us in OVERHEADS_US {
        let mut payload = Payload::new();
        let mut sens = HashMap::new();
        for board in 0..3 {
            for _ in 0..3 {
                let pos = payload.load_design(board, "ctr", geom, &imp.bitstream);
                sens.insert(pos, campaign.sensitive_set());
            }
        }
        for (b, f) in payload.positions() {
            payload.fpga_mut(b, f).manager.frame_overhead = SimDuration::from_micros(overhead_us);
        }
        let stats = run_mission(
            &mut payload,
            &MissionConfig {
                duration: SimDuration::from_secs(hours * 3600),
                rates: OrbitRates {
                    quiet_per_hour: 600.0,
                    flare_per_hour: 600.0,
                    devices: 9,
                },
                periodic_full_reconfig: Some(SimDuration::from_secs(1800)),
                ..Default::default()
            },
            &sens,
        );
        let _ = writeln!(
            report,
            "{:>15} µs | {:>9.1} ms | {:>12.1} ms | {:>12.1} ms | {:>12.6}",
            overhead_us,
            stats.scan_cycle_ms,
            stats.detect_latency_mean_ms,
            stats.detect_latency_max_ms,
            stats.availability
        );
        rows.push(ScanrateRow {
            overhead_us,
            scan_cycle_ms: stats.scan_cycle_ms,
            latency_mean_ms: stats.detect_latency_mean_ms,
            latency_max_ms: stats.detect_latency_max_ms,
            availability: stats.availability,
        });
    }
    let _ = writeln!(report, "{}", "-".repeat(84));
    let _ = writeln!(
        report,
        "# detection latency tracks the scan cycle (an upset waits at most one scan),"
    );
    let _ = writeln!(
        report,
        "# and availability degrades as sensitive upsets linger longer before repair."
    );

    ScanrateResult { rows, report }
}
