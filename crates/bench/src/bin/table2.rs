//! Experiment E2 — **Table II**: sensitivity and persistence ratio per
//! design class. The paper's shape: the feed-forward multiply-add has a
//! ≈0 % persistence ratio, the counter/adder ≈10 %, the LFSR ≈94 %, with
//! the hybrids in between.
//!
//! Usage: `cargo run --release -p cibola-bench --bin table2 --
//!           [--scale 0.2] [--fraction 0.3] [--geometry small]`
//!
//! Every flag overrides `Table2Params::paper()`, whose values are shown.

use cibola_bench::experiments::table2::{self, Table2Params};
use cibola_bench::Args;

fn main() {
    let args = Args::parse();
    let p = Table2Params::paper();
    let params = Table2Params {
        geometry: args.geometry(p.geometry),
        scale: args.f64("--scale", p.scale),
        fraction: args.f64("--fraction", p.fraction),
        set: p.set,
    };
    print!("{}", table2::run(&params).report);
}
