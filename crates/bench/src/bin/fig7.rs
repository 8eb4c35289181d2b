//! Experiment E3 — **Fig. 7**: errors induced by persistent configuration
//! bits. A counter's state-path bit is upset at ≈cycle 502; the actual
//! output never re-matches the expected value after scrub repair, only
//! after reset — the series this binary prints is the figure's data.
//!
//! Usage: `cargo run --release -p cibola-bench --bin fig7 --
//!          [--width 8] [--geometry tiny]`
//!
//! Every flag overrides `Fig7Params::paper()`, whose values are shown.

use cibola_bench::experiments::fig7::{self, Fig7Params};
use cibola_bench::Args;

fn main() {
    let args = Args::parse();
    let p = Fig7Params::paper();
    let params = Fig7Params {
        geometry: args.geometry(p.geometry),
        width: args.usize("--width", p.width),
    };
    print!("{}", fig7::run(&params).report);
}
