//! A1 — selective TMR guided by the correlation table (§III-A):
//! normalized sensitivity must fall as the protected fraction grows.

use std::fmt::Write as _;

use cibola::designs::PaperDesign;
use cibola::inject::selective_protect_set;
use cibola::prelude::*;

use super::Tier;
use crate::pct;

#[derive(Debug, Clone)]
pub struct TmrParams {
    pub geometry: Geometry,
}

impl TmrParams {
    /// The `run_experiments.sh` configuration behind
    /// `results/selective_tmr.txt`.
    pub fn paper() -> Self {
        TmrParams {
            geometry: Geometry::tiny(),
        }
    }

    /// The sweep is already CI-sized at tiny geometry; smoke == paper, so
    /// the golden snapshot doubles as a `results/selective_tmr.txt`
    /// regression.
    pub fn smoke() -> Self {
        TmrParams::paper()
    }

    pub fn for_tier(tier: Tier) -> Self {
        match tier {
            Tier::Smoke => TmrParams::smoke(),
            Tier::Paper => TmrParams::paper(),
        }
    }
}

#[derive(Debug, Clone)]
pub struct TmrRow {
    pub label: String,
    pub cells: usize,
    pub slices: usize,
    pub sensitivity: f64,
    pub normalized: f64,
}

#[derive(Debug)]
pub struct TmrResult {
    /// Unmitigated first, then protected fractions in increasing order.
    pub rows: Vec<TmrRow>,
    pub report: String,
}

impl TmrResult {
    /// Normalized sensitivity never rises as protection grows (allowing
    /// `tolerance` in absolute normalized-sensitivity units for sampling
    /// noise between adjacent rungs).
    pub fn monotonic_decreasing(&self, tolerance: f64) -> bool {
        self.rows
            .windows(2)
            .all(|w| w[1].normalized <= w[0].normalized + tolerance)
    }

    /// Full-TMR normalized sensitivity / unmitigated.
    pub fn full_tmr_reduction(&self) -> f64 {
        match (self.rows.first(), self.rows.last()) {
            (Some(base), Some(full)) if self.rows.len() >= 2 => {
                full.normalized / base.normalized.max(f64::MIN_POSITIVE)
            }
            _ => f64::NAN,
        }
    }
}

pub fn run(p: &TmrParams) -> TmrResult {
    let geom = &p.geometry;
    let nl = PaperDesign::CounterAdder { width: 6 }.netlist();
    let imp = implement(&nl, geom).unwrap();

    // Characterise the unmitigated design.
    let tb = Testbed::new(&imp, 0x5E1, 96);
    let cfg = CampaignConfig {
        observe_cycles: 48,
        classify_persistence: false,
        ..Default::default()
    };
    let base = run_campaign_wide(&tb, &cfg);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# Selective TMR guided by the SEU simulator's correlation data"
    );
    let _ = writeln!(report, "# design '{}' on {}", nl.name, geom.name);
    let _ = writeln!(
        report,
        "{:<22} | {:>7} | {:>8} | {:>11} | {:>13}",
        "Variant", "Cells", "Slices", "Sensitivity", "Normalized"
    );
    let _ = writeln!(report, "{}", "-".repeat(72));
    let _ = writeln!(
        report,
        "{:<22} | {:>7} | {:>8} | {:>11} | {:>13}",
        "unmitigated",
        nl.cells.len(),
        imp.report.slices_used,
        pct(base.sensitivity()),
        pct(base.normalized_sensitivity()),
    );
    let mut rows = vec![TmrRow {
        label: "unmitigated".to_string(),
        cells: nl.cells.len(),
        slices: imp.report.slices_used,
        sensitivity: base.sensitivity(),
        normalized: base.normalized_sensitivity(),
    }];

    for fraction in [0.25, 0.5, 0.75, 1.0] {
        let (variant, label) = if fraction >= 1.0 {
            (tmr(&nl).0, "full TMR".to_string())
        } else {
            let protect = selective_protect_set(&base, &imp, fraction);
            (
                selective_tmr(&nl, &protect).0,
                format!("selective TMR {:.0}%", fraction * 100.0),
            )
        };
        let imp_v = match implement(&variant, geom) {
            Ok(i) => i,
            Err(e) => {
                let _ = writeln!(report, "{label}: skipped ({e})");
                continue;
            }
        };
        let tb_v = Testbed::new(&imp_v, 0x5E1, 96);
        let r = run_campaign_wide(&tb_v, &cfg);
        let _ = writeln!(
            report,
            "{:<22} | {:>7} | {:>8} | {:>11} | {:>13}",
            label,
            variant.cells.len(),
            imp_v.report.slices_used,
            pct(r.sensitivity()),
            pct(r.normalized_sensitivity()),
        );
        rows.push(TmrRow {
            label,
            cells: variant.cells.len(),
            slices: imp_v.report.slices_used,
            sensitivity: r.sensitivity(),
            normalized: r.normalized_sensitivity(),
        });
    }
    let _ = writeln!(report, "{}", "-".repeat(72));
    let _ = writeln!(
        report,
        "# normalized sensitivity = failures per occupied-slice fraction: the voter"
    );
    let _ = writeln!(
        report,
        "# masking shows up as the drop from the unmitigated row."
    );

    TmrResult { rows, report }
}
