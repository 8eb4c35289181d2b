//! Shared helpers for the cibola experiment binaries (one per paper table
//! and figure — see DESIGN.md §3 and EXPERIMENTS.md for the index), plus
//! the experiment-oracle layer:
//!
//! * [`experiments`] — tiered runners for every EXPERIMENTS.md entry
//!   (E1–E11, A1–A3). Each returns a measurement struct *and* the
//!   rendered text report, so the table/figure binaries, the golden
//!   snapshots, and the `verify_experiments` oracle share one
//!   implementation.
//! * [`claims`] — machine-checked shape claims with stable IDs
//!   (`E1-MULT-LFSR-RATIO`, …) evaluated by `verify_experiments` and
//!   written to `results/verify_summary.json`.
//! * [`conformance`] — the seeded cross-engine corpus replayed by
//!   `corpus_replay` and the `corpus_smoke` test: scalar vs wide
//!   campaigns, event-driven vs reference missions, bit-identical.

use cibola::prelude::*;

pub mod claims;
pub mod conformance;
pub mod experiments;

/// Parse `--key value` style arguments with defaults.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }

    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.raw.iter().any(|a| a == key)
    }

    /// Geometry by name: tiny | small | quarter | xqvr1000 (add `-v2` for
    /// the Virtex-II frame layout). Resolved through
    /// [`Geometry::by_name`], the same registry the oracle and the
    /// conformance corpus use.
    pub fn geometry(&self, default: &str) -> Geometry {
        let name = self.get("--geometry").unwrap_or(default);
        Geometry::by_name(name).unwrap_or_else(|| panic!("unknown geometry {name}"))
    }
}

/// A `usize` from the environment, with a default (shared by the bench
/// binaries so CI can clamp their scales).
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Percent formatting.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// A horizontal rule of `n` dashes (the table separators every report
/// binary prints).
pub fn rule(n: usize) -> String {
    "-".repeat(n)
}

/// The standard nine-FPGA payload (three boards of three devices), every
/// position loaded with the same implementation — the configuration the
/// paper flew and the shape `fig4_scrub`, `ablation_scanrate`, the
/// benchmark's storm workload and the conformance corpus all build.
pub fn nine_fpga_payload(geom: &Geometry, imp: &Implementation, label: &str) -> Payload {
    let mut payload = Payload::new();
    for board in 0..3 {
        for _ in 0..3 {
            payload.load_design(board, label, geom, &imp.bitstream);
        }
    }
    payload
}
