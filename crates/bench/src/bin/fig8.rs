//! Experiment E5 — **Fig. 8** and §III-A timing: the SEU-injection loop.
//! Reproduces the paper's cost model (single bit modified and loaded in
//! 100 µs; 214 µs per loop; 5.8 Mbit exhaustively tested in ≈20 minutes)
//! and reports the host-side throughput of this reproduction — the
//! "orders of magnitude speed-up over purely software techniques" claim
//! inverted: our software substrate's actual rate.
//!
//! The cost model comes from the experiments library (shared with the
//! oracle and the golden snapshots); the host-throughput section below is
//! wall-clock-dependent and stays binary-only.
//!
//! Usage: `cargo run --release -p cibola-bench --bin fig8`

use cibola::designs::PaperDesign;
use cibola::prelude::*;
use cibola_bench::experiments::fig8;
use cibola_bench::Args;

fn main() {
    let args = Args::parse();
    let geom = args.geometry(Geometry::tiny());

    print!("{}", fig8::run().report);

    println!("\n# host-side throughput of this reproduction");
    for d in [
        PaperDesign::LfsrScaled {
            clusters: 2,
            bits: 10,
        },
        PaperDesign::Mult { width: 5 },
    ] {
        let nl = d.netlist();
        let imp = implement(&nl, &geom).unwrap();
        let tb = Testbed::new(&imp, 5, 96);
        let r = run_campaign_wide(
            &tb,
            &CampaignConfig {
                observe_cycles: 64,
                classify_persistence: false,
                ..Default::default()
            },
        );
        let inj_per_s = r.injections as f64 / r.host_seconds;
        let effective = (r.injections + r.inert_bits) as f64 / r.host_seconds;
        println!(
            "{:<12} {:>7} simulated + {:>7} analytically-inert bits in {:>6.2}s → {:>7.0} inj/s ({:>9.0} bits/s effective)",
            d.label(),
            r.injections,
            r.inert_bits,
            r.host_seconds,
            inj_per_s,
            effective,
        );
        println!(
            "             simulated testbed time for the same sweep: {} — host speed-up {:.1}×",
            r.sim_time,
            r.sim_time.as_secs_f64() / r.host_seconds
        );
    }
}
