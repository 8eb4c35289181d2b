//! Experiment E1 — **Table I**: SEU simulator results for the test-design
//! ladder (LFSR / VMULT / MULT at four sizes each): logic slices, design
//! failures, sensitivity, and normalized sensitivity.
//!
//! The paper's headline shapes this run reproduces:
//! * normalized sensitivity is nearly constant across sizes of one family;
//! * multiplier-family normalized sensitivity is ≈3× the LFSR family's.
//!
//! Usage: `cargo run --release -p cibola-bench --bin table1 --
//!           [--scale 0.25] [--fraction 0.2] [--geometry small] [--cycles 96]`
//!
//! Every flag overrides `Table1Params::paper()`, whose values are shown.

use cibola_bench::experiments::table1::{self, Table1Params};
use cibola_bench::Args;

fn main() {
    let args = Args::parse();
    let p = Table1Params::paper();
    let params = Table1Params {
        geometry: args.geometry(p.geometry),
        scale: args.f64("--scale", p.scale),
        fraction: args.f64("--fraction", p.fraction),
        cycles: args.usize("--cycles", p.cycles),
        ladder: p.ladder,
    };
    print!("{}", table1::run(&params).report);
}
