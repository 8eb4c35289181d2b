//! Experiment E6 — **Figs. 11–12** and §III-B: accelerator validation of
//! the SEU simulator. Replays the Crocker-cyclotron procedure (designs at
//! speed, flux servoed to ≈1 upset per 0.5 s observation, readback repair,
//! reset on error) against the exhaustive campaign's sensitivity map and
//! reports the fraction of beam-observed output errors the simulator
//! predicted — the paper's 97.6 % result and its hidden-state shortfall.
//!
//! Usage: `cargo run --release -p cibola-bench --bin fig12_validation --
//!          [--observations 2500] [--geometry tiny]`
//!
//! Every flag overrides `Fig12Params::paper()`, whose values are shown.

use cibola_bench::experiments::fig12::{self, Fig12Params};
use cibola_bench::Args;

fn main() {
    let args = Args::parse();
    let p = Fig12Params::paper();
    let params = Fig12Params {
        geometry: args.geometry(p.geometry),
        observations: args.usize("--observations", p.observations),
    };
    print!("{}", fig12::run(&params).report);
}
