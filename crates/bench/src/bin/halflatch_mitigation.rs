//! Experiment E7 — §III-C: half-latch mitigation under beam. Compares an
//! unmitigated design against its RadDRC'd version in a scrubbed beam
//! exposure, counting *hard failures* — output-error events a scrub
//! repair cannot explain, which on orbit force a full reconfiguration.
//! The paper: "Mitigated designs were found to be 100X \[more\] resistant
//! to failure than unmitigated designs."
//!
//! Usage: `cargo run --release -p cibola-bench --bin halflatch_mitigation --
//!          [--observations 6000]`

use cibola_bench::experiments::halflatch::{self, HalflatchParams};
use cibola_bench::Args;

fn main() {
    let args = Args::parse();
    let params = HalflatchParams {
        geometry: args.geometry("small"),
        observations: args.usize("--observations", 12_000),
    };
    print!("{}", halflatch::run(&params).report);
}
