//! E9 — §I: orbit upset rates. The rate↔flux inversion must round-trip
//! and the sampled Poisson process must reproduce the implied
//! inter-arrival means.

use std::fmt::Write as _;

use cibola::prelude::*;
use cibola::radiation::OrbitCondition;

use super::Tier;

#[derive(Debug, Clone)]
pub struct OrbitParams {
    /// Inter-arrival samples per condition for the Poisson check.
    pub samples: usize,
}

impl OrbitParams {
    /// The `run_experiments.sh` configuration behind
    /// `results/orbit_rates.txt`.
    pub fn paper() -> Self {
        OrbitParams { samples: 50_000 }
    }

    /// Sampling 100k exponentials is already sub-second; smoke == paper,
    /// so the golden snapshot doubles as a `results/orbit_rates.txt`
    /// regression.
    pub fn smoke() -> Self {
        OrbitParams::paper()
    }

    pub fn for_tier(tier: Tier) -> Self {
        match tier {
            Tier::Smoke => OrbitParams::smoke(),
            Tier::Paper => OrbitParams::paper(),
        }
    }
}

#[derive(Debug)]
pub struct OrbitResult {
    /// Worst relative error of rate → flux → rate over both conditions.
    pub roundtrip_rel_err: f64,
    /// Sampled mean inter-arrival in quiet LEO, seconds (expect 3000).
    pub mean_quiet_s: f64,
    /// Sampled mean inter-arrival in a flare, seconds (expect 375).
    pub mean_flare_s: f64,
    pub report: String,
}

pub fn run(p: &OrbitParams) -> OrbitResult {
    // The paper's device numbers.
    let sigma_device_cm2 = 8.0e-8 * 5.8e6; // per-bit σ × bits ⇒ device σ
    let bits = 5_800_000usize;
    let sigma_bit = 8.0e-8; // quoted as the average saturation cross-section
    let devices = 9;

    let mut report = String::new();
    let _ = writeln!(report, "# §I — LEO Upset Rates for the Nine-FPGA System");
    let _ = writeln!(report, "device: XQVR1000-class, {bits} configuration bits");
    let _ = writeln!(
        report,
        "per-bit saturation cross-section: {sigma_bit:.1e} cm²"
    );
    let _ = writeln!(report, "device cross-section: {sigma_device_cm2:.3} cm²\n");

    let rates = OrbitRates::default();
    let mut roundtrip_rel_err = 0.0f64;
    for (name, rate) in [
        ("quiet LEO", rates.quiet_per_hour),
        ("solar flare", rates.flare_per_hour),
    ] {
        let flux = OrbitRates::implied_flux(rate, sigma_bit, bits, devices);
        let back = OrbitRates::from_physics(sigma_bit, bits, flux, devices);
        roundtrip_rel_err = roundtrip_rel_err.max(((back - rate) / rate).abs());
        let _ = writeln!(
            report,
            "{name:<12}: {rate:>4.1} upsets/hour over {devices} devices  ⇔  effective flux {flux:.2e} particles/cm²/s (check: {back:.2} /h)"
        );
    }
    let _ = writeln!(
        report,
        "\nper-device mean time between upsets: quiet {:.1} h, flare {:.2} h",
        1.0 / rates.per_device_per_hour(OrbitCondition::Quiet),
        1.0 / rates.per_device_per_hour(OrbitCondition::SolarFlare)
    );

    // Sampled inter-arrival check from the Poisson process.
    let mut env = OrbitEnvironment::new(rates, 9);
    let n = p.samples;
    let mean_quiet: f64 = (0..n)
        .map(|_| env.next_upset_in().as_secs_f64())
        .sum::<f64>()
        / n as f64;
    env.set_condition(OrbitCondition::SolarFlare);
    let mean_flare: f64 = (0..n)
        .map(|_| env.next_upset_in().as_secs_f64())
        .sum::<f64>()
        / n as f64;
    let _ = writeln!(
        report,
        "sampled mean inter-arrival: quiet {:.0} s (expect 3000), flare {:.0} s (expect 375)",
        mean_quiet, mean_flare
    );

    OrbitResult {
        roundtrip_rel_err,
        mean_quiet_s: mean_quiet,
        mean_flare_s: mean_flare,
        report,
    }
}
