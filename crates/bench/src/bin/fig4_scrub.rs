//! Experiment E4 — **Fig. 4** and §II-A timing: the on-orbit fault
//! detection/correction loop. Reproduces the paper's "cycle time ≈180 ms
//! for 3 XQVR1k" scan cadence at flight geometry, then measures detection
//! latency and availability in an accelerated mission.
//!
//! Usage: `cargo run --release -p cibola-bench --bin fig4_scrub --
//!          [--hours 12] [--accel 200] [--geometry tiny]`
//!
//! Every flag overrides `Fig4Params::paper()`, whose values are shown.

use cibola_bench::experiments::fig4::{self, Fig4Params};
use cibola_bench::Args;

fn main() {
    let args = Args::parse();
    let p = Fig4Params::paper();
    let params = Fig4Params {
        geometry: args.geometry(p.geometry),
        hours: args.u64("--hours", p.hours),
        accel: args.f64("--accel", p.accel),
    };
    print!("{}", fig4::run(&params).report);
}
