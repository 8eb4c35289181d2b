//! The benchmark's own checks, at a tiny scale: the traced split must
//! reproduce the untraced outputs exactly, its stage times plus the
//! residual must sum to the traced wall time, and the output checks must
//! be able to fail.

use cibola::designs::PaperDesign;
use cibola::prelude::*;
use cibola_perfbench::campaign::Campaign;
use cibola_perfbench::mission::Storm;
use cibola_perfbench::{run_untraced, SetupSplit, Trace, Workload, END_TO_END, PER_LAYER};

fn tiny_campaign() -> Campaign {
    Campaign {
        geometry: Geometry::tiny(),
        designs: vec![
            PaperDesign::CounterAdder { width: 4 },
            PaperDesign::LfsrScaled {
                clusters: 1,
                bits: 12,
            },
            PaperDesign::Mult { width: 3 },
        ],
        spot_bits: 16,
        ratio_fraction: 0.2,
        ..Campaign::paper(7)
    }
}

fn tiny_storm() -> Storm {
    let mut s = Storm::paper(7);
    s.ensemble.missions = 2;
    s.ensemble.mission.duration = SimDuration::from_secs(1800);
    s.ensemble.mission.flare = Some((SimTime::from_secs(600), SimTime::from_secs(900)));
    s.ensemble.mission.periodic_full_reconfig = Some(SimDuration::from_secs(600));
    s.reference_horizon_s = 20;
    s
}

/// Run the traced split and check it against the untraced outputs and
/// the sum rule.
fn traced<W: Workload>(w: &W) -> Trace {
    let setup = w.setup(&mut SetupSplit::default());
    let t = w.traced(&setup);
    assert!(t.checks.attempted >= 2, "{:?}", t.checks);
    assert_eq!(t.checks.failed, 0, "{:?}", t.checks.notes);

    let wall = t.layers.get("trace.wall_s");
    let other = t.layers.get("trace.other_s");
    let stages: f64 = t.stages.iter().map(|s| t.layers.get(s)).sum();
    assert!(wall > 0.0);
    for s in &t.stages {
        assert!(t.layers.get(s) > 0.0, "stage {s} never ran");
    }
    assert!(other >= 0.0, "stages overlap: residual {other}");
    assert!(
        (stages + other - wall).abs() <= 1e-9 * wall,
        "stages {stages} + other {other} != wall {wall}"
    );
    t
}

#[test]
fn campaign_split_reproduces_untraced_outputs() {
    let t = traced(&tiny_campaign());
    let l = &t.layers;
    let closure = l.get("arch.triage.lane_bits")
        + l.get("arch.triage.benign_bits")
        + l.get("arch.triage.structural_bits");
    assert!(closure > 0.0 && l.get("arch.triage.structural_bits") > 0.0);
    assert!(l.get("inject.sensitive_bits") > 0.0);
    assert!(l.get("inject.wide_over_scalar") > 0.0);
    let share = l.get("inject.fallback_share");
    assert!(share > 0.0 && share < 1.0, "fallback share {share}");
}

#[test]
fn storm_split_reproduces_untraced_outputs() {
    let t = traced(&tiny_storm());
    let l = &t.layers;
    assert!(l.get("scrub.executed_rounds") > 0.0 && l.get("scrub.skipped_rounds") > 0.0);
    assert!(l.get("scrub.event_over_reference") > 0.0);
    assert!(l.get("scrub.work_pass_us") > 0.0);
    assert!(l.get("telemetry.events") > 0.0 && l.get("telemetry.dump_bytes") > 0.0);
    assert_eq!(l.get("forensics.mismatches"), 0.0);
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let r = run_untraced(&tiny_storm(), 0.0);
    assert!(r.checks.attempted >= 2);
    assert_eq!(r.checks.failed, 0, "{:?}", r.checks.notes);
    let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names, want);
    for (name, value, _) in &r.metrics {
        assert!(*value > 0.0, "{name} = {value}");
    }
}

#[test]
fn wrong_pinned_digests_fail_every_operation() {
    let mut w = tiny_storm();
    w.pinned = Some(vec![1, 2, 3, 4, 5]);
    let r = run_untraced(&w, 0.0);
    assert_eq!(r.checks.failed, r.checks.attempted);
}

#[test]
fn metric_names_are_unique() {
    let mut names: Vec<&str> = PER_LAYER
        .iter()
        .chain(END_TO_END.iter())
        .map(|m| m.0)
        .collect();
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n);
}

/// `BENCHMARK.json` at the repository root declares exactly the metrics
/// the binary prints, in the same order, with the same units.
#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let section = |key: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..text[start..].find(']').map(|e| start + e).unwrap()];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap().to_string();
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .unwrap()
                    .to_string();
                (name, unit)
            })
            .collect()
    };
    let owned = |m: &[(&str, &str)]| -> Vec<(String, String)> {
        m.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section("end_to_end"), owned(&END_TO_END));
    assert_eq!(section("per_layer"), owned(PER_LAYER));
}
