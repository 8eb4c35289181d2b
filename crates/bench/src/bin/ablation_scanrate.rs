//! Ablation A2 — scrub-rate sensitivity: how availability and detection
//! latency respond to the fault manager's scan cadence and the orbit
//! upset rate. The design point the paper flew (continuous scanning,
//! ≈180 ms for a board) sits at the fast end of this sweep.
//!
//! Usage: `cargo run --release -p cibola-bench --bin ablation_scanrate --
//!          [--hours 4] [--geometry tiny]`
//!
//! Every flag overrides `ScanrateParams::paper()`, whose values are shown.

use cibola_bench::experiments::scanrate::{self, ScanrateParams};
use cibola_bench::Args;

fn main() {
    let args = Args::parse();
    let p = ScanrateParams::paper();
    let params = ScanrateParams {
        geometry: args.geometry(p.geometry),
        hours: args.u64("--hours", p.hours),
    };
    print!("{}", scanrate::run(&params).report);
}
