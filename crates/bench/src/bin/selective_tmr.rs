//! Ablation A1 — selective TMR guided by the correlation table
//! (paper §III-A: "Selective Triple Module Redundancy (TMR) or other
//! mitigation techniques can then be selectively applied to the sensitive
//! cross section"). Sweeps the protected fraction and reports the
//! area-vs-sensitivity trade-off.
//!
//! Usage: `cargo run --release -p cibola-bench --bin selective_tmr --
//!          [--geometry tiny]`
//!
//! The flag overrides `TmrParams::paper()`, whose value is shown.

use cibola_bench::experiments::tmr::{self, TmrParams};
use cibola_bench::Args;

fn main() {
    let args = Args::parse();
    let p = TmrParams::paper();
    let params = TmrParams {
        geometry: args.geometry(p.geometry),
    };
    print!("{}", tmr::run(&params).report);
}
