//! Experiment E8 — §II-B (Fig. 5): BIST coverage for permanent faults.
//! Verifies the paper's operation counts (the wire test needs exactly 20
//! partial reconfigurations and 40 readbacks per row to cover the 80
//! output-mux wires of each CLB) and measures detection coverage over
//! randomly injected stuck-at faults.
//!
//! Usage: `cargo run --release -p cibola-bench --bin bist_coverage --
//!          [--faults 24] [--geometry tiny]`
//!
//! Every flag overrides `BistParams::paper()`, whose values are shown.

use cibola_bench::experiments::bist::{self, BistParams};
use cibola_bench::Args;

fn main() {
    let args = Args::parse();
    let p = BistParams::paper();
    let params = BistParams {
        geometry: args.geometry(p.geometry),
        faults: args.usize("--faults", p.faults),
    };
    print!("{}", bist::run(&params).report);
}
