//! The experiment runner and oracle: regenerates every EXPERIMENTS.md
//! entry (E1–E13, A1–A3) at a chosen tier, writes each rendered report,
//! and machine-checks the experiment's shape claims.
//!
//! Each prose claim in EXPERIMENTS.md ("normalized sensitivity ≈ constant
//! within a family", "exactly 20 reconfigurations and 40 readbacks",
//! "183.7 ms scan cycle") is evaluated programmatically with a stable
//! claim ID; the per-claim verdicts are printed as a table and written to
//! a JSON summary. Any failing claim makes the process exit non-zero —
//! this is the repro gate CI runs on every PR.
//!
//! Usage: `cargo run --release -p cibola-bench --bin verify_experiments --
//!          [--tier smoke|paper] [--only E4[,A1…]] [--reports <dir>]
//!          [--out <summary.json>]`
//!
//! * `--tier smoke` (default): CI-sized scales — tiny geometries, short
//!   missions, sampled closures. Runs in seconds in release.
//! * `--tier paper`: every experiment at its `paper()` parameters, the
//!   scales behind the checked-in `results/*.txt`.
//! * `--only Ex[,Ey…]`: evaluate a subset of experiments (claim counts
//!   below the CI floor are expected then). An id that names no
//!   experiment exits 2 and lists the valid ones.
//! * `--reports <dir>`: write each experiment's report, exactly as
//!   rendered, to `<dir>/<stem>.txt` as it completes (the stems are the
//!   `results/` names in `EXPERIMENTS`). `run_experiments.sh` is
//!   `--tier paper --reports results`.
//! * `--out <path>`: where the claim summary goes. Without it only a full
//!   smoke run writes the committed `results/verify_summary.json`; a full
//!   paper run writes `target/verify_paper.json` and an `--only` subset
//!   `target/verify_subset.json`.
//!
//! Any other argument, or one of these flags without its value, exits 2.

use std::path::Path;
use std::time::Instant;

use cibola_bench::claims::ClaimSet;
use cibola_bench::experiments::{
    bist, fig12, fig4, fig7, fig8, forensics, halflatch, orbit, rmw, scanrate, strategies, table1,
    table2, tmr, virtex2, Tier,
};
use cibola_bench::Args;

/// Tier-dependent tolerance bands. Smoke scales are smaller and noisier,
/// so several bands widen; the *shape* under test is the same.
struct Bands {
    family_spread_lfsr: f64,
    family_spread_vmult: f64,
    family_spread_mult: f64,
    ratio_lo: f64,
    ratio_hi: f64,
    feedback_persistence_min: f64,
    availability_min: f64,
    agreement_min: f64,
    raddrc_min: f64,
    mitigated_hard_max: u64,
    poisson_tol: f64,
}

impl Bands {
    fn for_tier(tier: Tier) -> Self {
        match tier {
            // Calibrated against results/*.txt (paper scales): spreads
            // 0.3–6.2 points, ratio 2.4×, LFSR persistence 84.7 %,
            // availability 0.97+, agreement 98.2 %, RadDRC 28×.
            Tier::Paper => Bands {
                family_spread_lfsr: 3.0,
                family_spread_vmult: 4.0,
                family_spread_mult: 8.0,
                ratio_lo: 1.8,
                ratio_hi: 4.5,
                feedback_persistence_min: 0.5,
                availability_min: 0.9,
                agreement_min: 0.93,
                // Deterministic at seed 0xD00D / 12k observations: 56
                // unmitigated vs 2 residual (FSM-channel) hard failures,
                // a Laplace-smoothed 19× improvement.
                raddrc_min: 10.0,
                mitigated_hard_max: 3,
                poisson_tol: 0.02,
            },
            // Tiny-device ladders have fewer rungs and sparser closures.
            Tier::Smoke => Bands {
                family_spread_lfsr: 8.0,
                family_spread_vmult: 8.0,
                family_spread_mult: 10.0,
                ratio_lo: 1.5,
                ratio_hi: 6.0,
                feedback_persistence_min: 0.4,
                availability_min: 0.85,
                agreement_min: 0.88,
                raddrc_min: 3.0,
                mitigated_hard_max: 0,
                poisson_tol: 0.02,
            },
        }
    }
}

/// An experiment's runner: evaluates its claims into the set and returns
/// its rendered report.
type Experiment = fn(Tier, &Bands, &mut ClaimSet) -> String;

/// Every experiment in run order: its id, the stem of the file `--reports`
/// writes its report to (the `results/` names), and its runner.
const EXPERIMENTS: [(&str, &str, Experiment); 15] = [
    ("E1", "table1", e1),
    ("E2", "table2", e2),
    ("E3", "fig7", e3),
    ("E4", "fig4_scrub", e4),
    ("E5", "fig8", e5),
    ("E6", "fig12_validation", e6),
    ("E7", "halflatch_mitigation", e7),
    ("E8", "bist_coverage", e8),
    ("E9", "orbit_rates", e9),
    ("A1", "selective_tmr", a1),
    ("A2", "ablation_scanrate", a2),
    ("A3", "rmw", a3),
    ("E12", "strategy_compare", e12),
    ("E13", "mission_forensics", e13),
    ("E11", "virtex2_masking", e11),
];

/// Where the summary goes without `--out`: only a full smoke run, the run
/// CI gates on, writes the committed summary; a full paper run and an
/// `--only` subset write under `target/`.
fn default_out(tier: Tier, subset: bool) -> &'static str {
    match (tier, subset) {
        (_, true) => "target/verify_subset.json",
        (Tier::Smoke, false) => "results/verify_summary.json",
        (Tier::Paper, false) => "target/verify_paper.json",
    }
}

fn main() {
    let args = Args::parse(&["--tier", "--only", "--reports", "--out"], &[]);
    let tier = Tier::parse(args.get("--tier").unwrap_or("smoke")).unwrap_or_else(|| {
        eprintln!("unknown tier (expected smoke|paper)");
        std::process::exit(2);
    });
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, ..)| id).collect();
    let only: Option<Vec<&str>> = args.get("--only").map(|list| {
        list.split(',')
            .map(|e| {
                let e = e.trim();
                let id = ids.iter().copied().find(|id| id.eq_ignore_ascii_case(e));
                id.unwrap_or_else(|| {
                    eprintln!(
                        "error: --only {e}: unknown experiment (expected one of {})",
                        ids.join(", ")
                    );
                    std::process::exit(2)
                })
            })
            .collect()
    });
    let out_path = args
        .get("--out")
        .unwrap_or(default_out(tier, only.is_some()))
        .to_string();
    let reports = args.get("--reports").map(Path::new);
    if let Some(dir) = reports {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    }
    let bands = Bands::for_tier(tier);

    let started = Instant::now();
    let mut set = ClaimSet::new();
    for (id, stem, run) in EXPERIMENTS {
        if only.as_ref().is_some_and(|only| !only.contains(&id)) {
            continue;
        }
        let report = run(tier, &bands, &mut set);
        eprintln!(
            "[verify] {id} {stem} done ({:.1}s)",
            started.elapsed().as_secs_f64()
        );
        if let Some(dir) = reports {
            let path = dir.join(format!("{stem}.txt"));
            std::fs::write(&path, report)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
    }

    let host_seconds = started.elapsed().as_secs_f64();
    print!("{}", set.render());
    println!(
        "# tier {} | {:.1}s | summary → {}",
        tier.name(),
        host_seconds,
        out_path
    );

    if let Some(dir) = Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, set.to_json(tier.name()))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));

    // The CI floor: a full run must exercise a meaningful claim surface.
    if only.is_none() && set.claims.len() < 12 {
        eprintln!(
            "FATAL: only {} claims evaluated (floor is 12)",
            set.claims.len()
        );
        std::process::exit(1);
    }
    if !set.all_pass() {
        std::process::exit(1);
    }
}

fn e1(tier: Tier, bands: &Bands, set: &mut ClaimSet) -> String {
    let r = table1::run(&table1::Table1Params::for_tier(tier));
    for (family, max_spread) in [
        ("LFSR", bands.family_spread_lfsr),
        ("VMULT", bands.family_spread_vmult),
        ("MULT", bands.family_spread_mult),
    ] {
        set.holds(
            match family {
                "LFSR" => "E1-FAMILY-ROWS-LFSR",
                "VMULT" => "E1-FAMILY-ROWS-VMULT",
                _ => "E1-FAMILY-ROWS-MULT",
            },
            "E1",
            &format!("{family} family has ≥2 rungs on the device"),
            r.family_rows(family) >= 2,
        );
        set.at_most(
            match family {
                "LFSR" => "E1-FAMILY-SPREAD-LFSR",
                "VMULT" => "E1-FAMILY-SPREAD-VMULT",
                _ => "E1-FAMILY-SPREAD-MULT",
            },
            "E1",
            &format!("{family} within-family normalized-sensitivity spread (points)"),
            r.family_spread_points(family),
            max_spread,
        );
    }
    set.band(
        "E1-MULT-LFSR-RATIO",
        "E1",
        "multiplier/LFSR normalized-sensitivity ratio (paper ≈3×)",
        r.mult_lfsr_ratio(),
        bands.ratio_lo,
        bands.ratio_hi,
    );
    set.holds(
        "E1-FAMILY-ORDER",
        "E1",
        "multiplier families above the LFSR family",
        r.family_mean("VMULT") > r.family_mean("LFSR")
            && r.family_mean("MULT") > r.family_mean("LFSR"),
    );
    r.report
}

fn e2(tier: Tier, bands: &Bands, set: &mut ClaimSet) -> String {
    let r = table2::run(&table2::Table2Params::for_tier(tier));
    let (ff, ctr, lfsr) = (
        r.persistence_of("Multiply-Add"),
        r.persistence_of("Counter/Adder"),
        r.persistence_of("LFSR 1x"),
    );
    set.holds(
        "E2-ORDER",
        "E2",
        "persistence: feed-forward < counter < LFSR",
        ff < ctr && ctr < lfsr,
    );
    set.at_most(
        "E2-FEEDFORWARD",
        "E2",
        "feed-forward multiply-add persistence ratio (paper ≈0)",
        ff,
        0.05,
    );
    set.at_least(
        "E2-FEEDBACK",
        "E2",
        "feedback-dominated LFSR persistence ratio (paper ≈94 %)",
        lfsr,
        bands.feedback_persistence_min,
    );
    r.report
}

fn e3(tier: Tier, _: &Bands, set: &mut ClaimSet) -> String {
    let r = fig7::run(&fig7::Fig7Params::for_tier(tier));
    set.exact(
        "E3-CLEAN-BEFORE",
        "E3",
        "no output errors before the upset cycle",
        r.errors_before_upset as u64,
        0,
    );
    set.at_least(
        "E3-PERSIST-REPAIR",
        "E3",
        "errors continue after scrub repair (persistence)",
        r.errors_after_repair as f64,
        1.0,
    );
    set.exact(
        "E3-RESET",
        "E3",
        "reset re-synchronises the design (paper: \"must be reset\")",
        r.errors_after_reset as u64,
        0,
    );
    r.report
}

fn e4(tier: Tier, bands: &Bands, set: &mut ClaimSet) -> String {
    let r = fig4::run(&fig4::Fig4Params::for_tier(tier));
    set.band(
        "E4-SCAN-CYCLE",
        "E4",
        "scan cycle for 3 × XQVR1000, ms (paper ≈180)",
        r.flight_scan_ms,
        170.0,
        195.0,
    );
    set.at_most(
        "E4-LATENCY",
        "E4",
        "max detection latency / scan cycle (bounded by the cadence)",
        r.stats.detect_latency_max_ms / r.stats.scan_cycle_ms,
        1.5,
    );
    set.at_least(
        "E4-AVAILABILITY",
        "E4",
        "mission availability under scrubbing",
        r.stats.availability,
        bands.availability_min,
    );
    set.at_least(
        "E4-SOH",
        "E4",
        "every upset lands in the state-of-health log",
        r.stats.soh_records as f64,
        r.stats.upsets_total as f64,
    );
    r.report
}

fn e5(_: Tier, _: &Bands, set: &mut ClaimSet) -> String {
    let r = fig8::run();
    set.exact(
        "E5-PER-BIT",
        "E5",
        "per-bit injection loop, µs (paper: 214)",
        r.per_bit_us.round() as u64,
        214,
    );
    set.band(
        "E5-EXHAUSTIVE-20MIN",
        "E5",
        "exhaustive 5.8 Mbit sweep, minutes (paper ≈20)",
        r.exhaustive_min,
        19.0,
        22.0,
    );
    r.report
}

fn e6(tier: Tier, bands: &Bands, set: &mut ClaimSet) -> String {
    let r = fig12::run(&fig12::Fig12Params::for_tier(tier));
    set.at_least(
        "E6-AGREEMENT",
        "E6",
        "aggregate simulator-vs-beam agreement (paper 97.6 %)",
        r.aggregate_agreement(),
        bands.agreement_min,
    );
    set.exact(
        "E6-HIDDEN-ONLY",
        "E6",
        "every missed error is attributed to hidden state",
        r.unattributed_errors() as u64,
        0,
    );
    r.report
}

fn e7(tier: Tier, bands: &Bands, set: &mut ClaimSet) -> String {
    let r = halflatch::run(&halflatch::HalflatchParams::for_tier(tier));
    set.at_most(
        "E7-MITIGATED-CLEAN",
        "E7",
        "RadDRC-mitigated design has (near-)zero hard failures",
        r.mitigated_hard as f64,
        bands.mitigated_hard_max as f64,
    );
    set.at_least(
        "E7-RADDRC",
        "E7",
        "hard-failure resistance improvement: unmitigated ÷ max(mitigated, 1) hard failures (paper ≈100×)",
        r.improvement(),
        bands.raddrc_min,
    );
    r.report
}

fn e8(tier: Tier, _: &Bands, set: &mut ClaimSet) -> String {
    let r = bist::run(&bist::BistParams::for_tier(tier));
    set.exact(
        "E8-OPCOUNT-RECONFIG",
        "E8",
        "wire test partial reconfigurations per row (paper: 20)",
        r.reconfig_rounds as u64,
        20,
    );
    set.exact(
        "E8-OPCOUNT-READBACK",
        "E8",
        "wire test readbacks per row (paper: 40)",
        r.readback_passes as u64,
        40,
    );
    set.holds(
        "E8-ISOLATION",
        "E8",
        "stuck fault isolated to the break column",
        r.isolation_ok,
    );
    set.at_least(
        "E8-COVERAGE",
        "E8",
        "full-suite stuck-at coverage",
        r.coverage(),
        0.7,
    );
    r.report
}

fn e9(tier: Tier, bands: &Bands, set: &mut ClaimSet) -> String {
    let r = orbit::run(&orbit::OrbitParams::for_tier(tier));
    set.at_most(
        "E9-ROUNDTRIP",
        "E9",
        "rate → flux → rate inversion relative error",
        r.roundtrip_rel_err,
        1e-9,
    );
    set.band(
        "E9-POISSON-QUIET",
        "E9",
        "sampled quiet inter-arrival mean, s (expect 3000)",
        r.mean_quiet_s,
        3000.0 * (1.0 - bands.poisson_tol),
        3000.0 * (1.0 + bands.poisson_tol),
    );
    set.band(
        "E9-POISSON-FLARE",
        "E9",
        "sampled flare inter-arrival mean, s (expect 375)",
        r.mean_flare_s,
        375.0 * (1.0 - bands.poisson_tol),
        375.0 * (1.0 + bands.poisson_tol),
    );
    r.report
}

fn a1(tier: Tier, _: &Bands, set: &mut ClaimSet) -> String {
    let r = tmr::run(&tmr::TmrParams::for_tier(tier));
    set.holds(
        "A1-MONOTONIC",
        "A1",
        "normalized sensitivity falls as the protected fraction grows",
        r.rows.len() >= 4 && r.monotonic_decreasing(0.02),
    );
    set.at_most(
        "A1-FULL-TMR",
        "A1",
        "full-TMR normalized sensitivity vs unmitigated",
        r.full_tmr_reduction(),
        0.5,
    );
    r.report
}

fn a2(tier: Tier, _: &Bands, set: &mut ClaimSet) -> String {
    let r = scanrate::run(&scanrate::ScanrateParams::for_tier(tier));
    set.every(
        "A2-LATENCY-TRACKS",
        "A2",
        "detection latency tracks the scan cycle at every step",
        r.rows.windows(2),
        |w| w[1].scan_cycle_ms > w[0].scan_cycle_ms && w[1].latency_mean_ms > w[0].latency_mean_ms,
    );
    set.holds(
        "A2-AVAILABILITY-DROP",
        "A2",
        "availability degrades at the slowest cadence",
        r.availability_drop() > 0.0,
    );
    r.report
}

fn a3(_: Tier, _: &Bands, set: &mut ClaimSet) -> String {
    let r = rmw::run();
    set.holds(
        "A3-RMW-STATIC",
        "A3",
        "RMW repair restores the corrupted static bit",
        r.static_fixed,
    );
    set.holds(
        "A3-RMW-LIVE",
        "A3",
        "RMW repair preserves live LUT-RAM contents",
        r.live_preserved,
    );
    set.every(
        "A3-NAIVE-WIPES",
        "A3",
        "naive golden restore wipes live data (the §IV-B hazard)",
        &r.naive_live,
        |&live| !live,
    );
    r.report
}

fn e12(tier: Tier, _: &Bands, set: &mut ClaimSet) -> String {
    let r = strategies::run(&strategies::StrategiesParams::for_tier(tier));
    set.exact(
        "E12-STRATEGY-COUNT",
        "E12",
        "every strategy in the zoo completed the chaos mission",
        r.rows.len() as u64,
        5,
    );
    set.holds(
        "E12-EVENT-MATCHES-REFERENCE",
        "E12",
        "chaos missions flown event-driven equal their every-round reference \
         (ladder, voted, intermodular, adaptive; stats and SOH count)",
        r.reference_matches.len() == strategies::REFERENCE_CHECKED.len()
            && r.reference_matches.iter().all(|&(_, m)| m),
    );
    set.every(
        "E12-AVAILABILITY-FLOOR",
        "E12",
        "every strategy keeps availability above 0.5 under chaos",
        &r.rows,
        |x| x.stats.mission.availability > 0.5,
    );
    set.holds(
        "E12-VOTED-FLASH-RELIEF",
        "E12",
        "majority voting repairs without FLASH wear (fewer golden reads than the ladder)",
        r.row("voted").stats.strategy.voted_repairs > 0
            && r.row("voted").flash_words_read <= r.row("ladder").flash_words_read,
    );
    let hooked = &r.voted_chaos.stats;
    let voter = &hooked.strategy;
    let mut same_mission = hooked.mission.clone();
    same_mission.soh_records = r.row("voted").stats.mission.soh_records;
    set.holds(
        "E12-VOTED-FALLBACK",
        "E12",
        "shadow chaos drives the voter to FLASH: fallbacks = disagreements > 0, two heals \
         each, hook-free mission stats apart from SOH records",
        voter.voter_fallbacks > 0
            && voter.voter_disagreements == voter.voter_fallbacks
            && voter.shadow_refreshes == 2 * voter.voter_fallbacks
            && same_mission == r.row("voted").stats.mission,
    );
    set.holds(
        "E12-INTERMOD-QUEUE-DELAY",
        "E12",
        "shared-controller rotation shows up as queueing delay and worse MTTR",
        r.row("intermodular").stats.strategy.queue_wait_rounds > 0
            && r.row("intermodular").stats.mission.detect_latency_mean_ms
                >= r.row("ladder").stats.mission.detect_latency_mean_ms,
    );
    set.holds(
        "E12-BLIND-WEAR",
        "E12",
        "blind scrubbing pays orders of magnitude more write wear",
        r.row("blind").stats.strategy.blind_writes
            > 100 * r.row("ladder").stats.mission.frames_repaired as u64,
    );
    set.holds(
        "E12-ADAPTIVE-QUIET-CEILING",
        "E12",
        "adaptive controller coasts a quiet mission at the period ceiling",
        r.quiet_adaptive.strategy.final_scrub_every == r.quiet_ceiling
            && r.quiet_adaptive.strategy.retunes > 0,
    );
    set.holds(
        "E12-ADAPTIVE-SCRUB-SAVINGS",
        "E12",
        "adaptive controller spends less scrub bandwidth than fixed-rate on quiet",
        r.quiet_adaptive.scrub_busy_ns < r.quiet_fixed.scrub_busy_ns,
    );
    r.report
}

fn e13(tier: Tier, _: &Bands, set: &mut ClaimSet) -> String {
    let r = forensics::run(&forensics::ForensicsParams::for_tier(tier));
    set.exact(
        "E13-RECONCILE-BUILTIN",
        "E13",
        "chaos-mission forensics report reconciles exactly against mission.end",
        r.builtin.reconcile().len() as u64,
        0,
    );
    set.exact(
        "E13-RECONCILE-STRATEGIES",
        "E13",
        "all five zoo-strategy streams reconcile with zero mismatches",
        r.strategy_mismatches
            .iter()
            .map(|(_, m)| *m as u64)
            .sum::<u64>()
            + (r.strategy_mismatches.len() as u64 != 5) as u64,
        0,
    );
    set.holds(
        "E13-KERNEL-INVARIANT",
        "E13",
        "report JSON digest is bit-identical across event/reference kernels",
        r.event_json_digest == r.reference_json_digest,
    );
    set.holds(
        "E13-ATTRIBUTION-COMPLETE",
        "E13",
        "per-cause outage attribution sums exactly to total unavailability",
        r.builtin
            .causes
            .values()
            .map(|c| c.unavailable_ns)
            .sum::<u64>()
            == r.builtin.unavailable_ns,
    );
    set.holds(
        "E13-MTTR-BIT-EXACT",
        "E13",
        "scrub MTTR mean re-derived from the stream is bit-identical to the kernel's",
        r.builtin.scrub_mttr_mean_ms.to_bits() == r.builtin_stats.detect_latency_mean_ms.to_bits(),
    );
    set.holds(
        "E13-AVAILABILITY-BIT-EXACT",
        "E13",
        "availability re-derived from the stream is bit-identical to the kernel's",
        r.builtin.availability.to_bits() == r.builtin_stats.availability.to_bits(),
    );
    set.band(
        "E13-FLARE-SHARE",
        "E13",
        "share of upsets attributed to the flare window (8× rate over ¼ of the mission)",
        r.flare_share,
        0.55,
        0.85,
    );
    set.holds(
        "E13-LEAK-DETECTOR",
        "E13",
        "without periodic reconfig, every leaked lifecycle raises an unresolved-leak anomaly",
        r.leaked_lifecycles > 0 && r.leak_anomalies == r.leaked_lifecycles && r.leak_reconciles,
    );
    set.holds(
        "E13-SHED-RECONCILE",
        "E13",
        "starved SOH budget fires the shed-storm detector and still reconciles sent+shed",
        r.shed_storm_fired && r.shed_reconciles,
    );
    r.report
}

fn e11(tier: Tier, _: &Bands, set: &mut ClaimSet) -> String {
    let r = virtex2::run(&virtex2::Virtex2Params::for_tier(tier));
    let one = r.row(1);
    set.exact(
        "E11-VIRTEX-MASK",
        "E11",
        "one SRL16 masks 16 frames of its column on Virtex",
        one.map(|x| x.virtex_masked as u64).unwrap_or(0),
        16,
    );
    set.band(
        "E11-V2-MASK",
        "E11",
        "same design masks 2–3 frames under the Virtex-II layout",
        one.map(|x| x.virtex2_masked as f64).unwrap_or(f64::NAN),
        2.0,
        3.0,
    );
    set.holds(
        "E11-GAIN",
        "E11",
        "Virtex-II masks fewer frames at every SRL count",
        !r.rows.is_empty() && r.rows.iter().all(|x| x.virtex2_masked < x.virtex_masked),
    );
    r.report
}

#[cfg(test)]
mod tests {
    use super::{default_out, Tier, EXPERIMENTS};

    #[test]
    fn a_subset_run_defaults_away_from_the_committed_summary() {
        assert_eq!(
            default_out(Tier::Smoke, false),
            "results/verify_summary.json"
        );
        assert_eq!(default_out(Tier::Smoke, true), "target/verify_subset.json");
        // A full paper run must not overwrite the committed smoke summary.
        assert_eq!(default_out(Tier::Paper, false), "target/verify_paper.json");
        assert_eq!(default_out(Tier::Paper, true), "target/verify_subset.json");
    }

    #[test]
    fn every_experiment_has_its_own_id_and_report_file() {
        for (i, (id, stem, _)) in EXPERIMENTS.iter().enumerate() {
            for (other, other_stem, _) in &EXPERIMENTS[i + 1..] {
                assert!(!id.eq_ignore_ascii_case(other), "{id} listed twice");
                assert_ne!(stem, other_stem, "{id} and {other} share a report file");
            }
        }
    }
}
