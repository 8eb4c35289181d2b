//! Experiment E11 — §IV-A architectural implications: how much of the
//! bitstream must be masked from the scrubber when a design uses LUT-RAM
//! or SRL16s, under the Virtex frame interleaving vs a Virtex-II-style
//! layout where "all of the LUT data for a given CLB column is contained
//! in two configuration data frames, so most of the bitstream data for
//! that column of CLBs can be read back during design execution."
//!
//! Usage: `cargo run --release -p cibola-bench --bin virtex2_masking --
//!          [--geometry tiny]`
//!
//! The flag overrides `Virtex2Params::paper()`, whose value is shown.

use cibola_bench::experiments::virtex2::{self, Virtex2Params};
use cibola_bench::Args;

fn main() {
    let args = Args::parse();
    let p = Virtex2Params::paper();
    let params = Virtex2Params {
        geometry: args.geometry(p.geometry),
    };
    print!("{}", virtex2::run(&params).report);
}
