//! E5 — **Fig. 8** and §III-A timing: the SEU-injection loop cost model
//! (214 µs per bit; 5.8 Mbit exhaustive in ≈20 minutes).
//!
//! The report is the deterministic cost model alone. Host throughput is
//! wall-clock, machine-dependent output; the benchmark's `campaign`
//! workload measures it, with spread.

use std::fmt::Write as _;

use cibola::inject::InjectTiming;

/// Bits in the real XQVR1000's configuration, as the paper rounds it.
pub const FLIGHT_BITS: u64 = 5_800_000;

#[derive(Debug)]
pub struct Fig8Result {
    /// Per-bit injection-loop cost in microseconds (paper: 214 µs).
    pub per_bit_us: f64,
    /// Exhaustive sweep over 5.8 Mbit, in minutes (paper: ≈20 min).
    pub exhaustive_min: f64,
    pub report: String,
}

/// The cost model is parameterless and tier-independent.
pub fn run() -> Fig8Result {
    let timing = InjectTiming::default();
    let mut report = String::new();
    let _ = writeln!(report, "# Fig. 8 — SEU Fault Injection Loop");
    let _ = writeln!(report, "loop cost model (simulated device time):");
    let _ = writeln!(
        report,
        "  corrupt (partial reconfiguration): {}",
        timing.corrupt
    );
    let _ = writeln!(
        report,
        "  repair:                            {}",
        timing.repair
    );
    let _ = writeln!(
        report,
        "  observe/log overhead:              {}",
        timing.observe_overhead
    );
    let _ = writeln!(
        report,
        "  per-bit total:                     {} (paper: 214 µs)",
        timing.per_bit()
    );
    let flight = timing.per_bit() * FLIGHT_BITS;
    let exhaustive_min = flight.as_secs_f64() / 60.0;
    let _ = writeln!(
        report,
        "  exhaustive over {:.1} Mbit:          {:.1} min (paper: ≈20 min)",
        FLIGHT_BITS as f64 / 1e6,
        exhaustive_min
    );

    Fig8Result {
        per_bit_us: timing.per_bit().as_secs_f64() * 1e6,
        exhaustive_min,
        report,
    }
}
