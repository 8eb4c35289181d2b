//! SEU-campaign integration tests: correctness of the active-closure
//! optimisation, and the emergent sensitivity/persistence behaviour the
//! paper's Tables I–II report.

use cibola_arch::{DeltaClass, DeltaMap, Device, Geometry, LANES};
use cibola_inject::{
    capture_trace, inject_one, run_campaign_wide, BitSelection, CampaignConfig, Testbed,
    TraceSchedule,
};
use cibola_netlist::{gen, implement};
use cibola_telemetry::Telemetry;

fn testbed_for(nl: &cibola_netlist::Netlist, geom: &Geometry, cycles: usize) -> Testbed {
    let imp = implement(nl, geom).unwrap();
    Testbed::new(&imp, 0xC1B07A, cycles)
}

/// The active closure is a sorted set, and its size on the benchmark's
/// three designs is pinned: a change to how the closure's bits are
/// addressed or collected must not change which bits it holds.
#[test]
fn active_closure_is_ascending_with_pinned_sizes() {
    let geom = Geometry::small();
    for (nl, size) in [
        (gen::pipelined_multiplier(8), 53_837),
        (gen::lfsr_cluster(2), 33_078),
        (gen::counter_adder(16), 22_982),
    ] {
        let imp = implement(&nl, &geom).unwrap();
        let mut dev = Device::new(geom.clone());
        dev.configure_full(&imp.bitstream);
        let closure = dev.active_config_bits();
        assert_eq!(closure.len(), size, "{}", nl.name);
        assert!(closure.windows(2).all(|w| w[0] < w[1]), "{}", nl.name);
        assert!(closure.last() < Some(&imp.bitstream.total_bits()));
    }
}

#[test]
fn active_closure_equals_exhaustive() {
    // The load-bearing claim behind the fast path: simulating only the
    // active closure finds exactly the same sensitive bits as simulating
    // every single configuration bit.
    let nl = gen::counter_adder(3);
    let tb = testbed_for(&nl, &Geometry::tiny(), 48);

    let mut cfg = CampaignConfig {
        observe_cycles: 24,
        persist_cycles: 16,
        persist_tail: 8,
        classify_persistence: false,
        selection: BitSelection::ActiveClosure,
        parallel: true,
        ..Default::default()
    };
    let fast = run_campaign_wide(&tb, &cfg);

    cfg.selection = BitSelection::All;
    let slow = run_campaign_wide(&tb, &cfg);

    let fast_bits: Vec<usize> = fast.sensitive.iter().map(|s| s.bit).collect();
    let slow_bits: Vec<usize> = slow.sensitive.iter().map(|s| s.bit).collect();
    assert_eq!(fast_bits, slow_bits, "closure pruning changed the result");
    assert!(
        fast.inert_bits > slow.inert_bits,
        "closure must actually prune ({} inert)",
        fast.inert_bits
    );
    assert_eq!(fast.injections + fast.inert_bits, tb.total_bits());
}

#[test]
fn campaign_is_deterministic_and_parallel_agnostic() {
    let nl = gen::lfsr_cluster_with(1, 8, 3);
    let tb = testbed_for(&nl, &Geometry::tiny(), 64);
    let mut cfg = CampaignConfig {
        observe_cycles: 32,
        persist_cycles: 24,
        ..Default::default()
    };
    cfg.parallel = true;
    let a = run_campaign_wide(&tb, &cfg);
    cfg.parallel = false;
    let b = run_campaign_wide(&tb, &cfg);
    assert_eq!(
        a.sensitive
            .iter()
            .map(|s| (s.bit, s.persistent))
            .collect::<Vec<_>>(),
        b.sensitive
            .iter()
            .map(|s| (s.bit, s.persistent))
            .collect::<Vec<_>>()
    );
}

#[test]
fn feedback_designs_are_persistent_feedforward_are_not() {
    // Table II's headline shape: the LFSR's sensitive bits are
    // overwhelmingly persistent; the feed-forward multiply pipeline's are
    // overwhelmingly not.
    let geom = Geometry::tiny();

    let lfsr = gen::lfsr_cluster_with(1, 8, 3);
    let tb_lfsr = testbed_for(&lfsr, &geom, 160);
    let cfg = CampaignConfig {
        observe_cycles: 64,
        persist_cycles: 64,
        persist_tail: 16,
        ..Default::default()
    };
    let r_lfsr = run_campaign_wide(&tb_lfsr, &cfg);
    assert!(
        r_lfsr.sensitive.len() > 20,
        "LFSR should have many sensitive bits, got {}",
        r_lfsr.sensitive.len()
    );
    let p_lfsr = r_lfsr.persistence_ratio();

    let mult = gen::pipelined_multiplier(4);
    let tb_mult = testbed_for(&mult, &geom, 160);
    let r_mult = run_campaign_wide(&tb_mult, &cfg);
    assert!(r_mult.sensitive.len() > 20);
    let p_mult = r_mult.persistence_ratio();

    assert!(
        p_lfsr > 0.5,
        "LFSR persistence ratio {p_lfsr:.2} should be high"
    );
    assert!(
        p_mult < 0.2,
        "feed-forward multiplier persistence ratio {p_mult:.2} should be low"
    );
    assert!(p_lfsr > p_mult + 0.3, "ordering must be decisive");
}

#[test]
fn sensitivity_scales_with_design_size_but_normalized_does_not() {
    // Table I: raw sensitivity grows with area; normalized sensitivity is
    // roughly constant across sizes of the same design family.
    let geom = Geometry::small();
    let cfg = CampaignConfig {
        observe_cycles: 48,
        persist_cycles: 0,
        classify_persistence: false,
        ..Default::default()
    };

    let small = gen::pipelined_multiplier(4);
    let tb_s = testbed_for(&small, &geom, 64);
    let r_s = run_campaign_wide(&tb_s, &cfg);

    let large = gen::pipelined_multiplier(8);
    let tb_l = testbed_for(&large, &geom, 64);
    let r_l = run_campaign_wide(&tb_l, &cfg);

    assert!(
        r_l.sensitivity() > 2.0 * r_s.sensitivity(),
        "raw sensitivity should grow markedly with area: {} vs {}",
        r_l.sensitivity(),
        r_s.sensitivity()
    );
    let (n_s, n_l) = (r_s.normalized_sensitivity(), r_l.normalized_sensitivity());
    let ratio = n_l / n_s;
    assert!(
        (0.5..2.0).contains(&ratio),
        "normalized sensitivity should be size-stable: {n_s:.4} vs {n_l:.4}"
    );
}

#[test]
fn sampled_campaign_estimates_exhaustive_sensitivity() {
    let nl = gen::counter_adder(4);
    let tb = testbed_for(&nl, &Geometry::tiny(), 64);
    let cfg_full = CampaignConfig {
        observe_cycles: 32,
        classify_persistence: false,
        ..Default::default()
    };
    let full = run_campaign_wide(&tb, &cfg_full);

    let cfg_sample = CampaignConfig {
        selection: BitSelection::Sample {
            count: 30_000,
            seed: 9,
        },
        ..cfg_full
    };
    let est = run_campaign_wide(&tb, &cfg_sample);
    let (s_full, s_est) = (full.sensitivity(), est.sensitivity());
    assert!(
        (s_est - s_full).abs() < 0.6 * s_full + 1e-4,
        "sample estimate {s_est:.5} vs exhaustive {s_full:.5}"
    );
    assert!(!est.exhaustive && full.exhaustive);
}

#[test]
fn single_bit_injection_detects_known_sensitive_bit() {
    // Flip a truth-table bit of a LUT in the active cone: must be found.
    let nl = gen::counter_adder(3);
    let geom = Geometry::tiny();
    let imp = implement(&nl, &geom).unwrap();
    let tb = Testbed::new(&imp, 7, 64);
    let cfg = CampaignConfig {
        observe_cycles: 32,
        ..Default::default()
    };

    // The counter's first toggle LUT lives at the first slot used.
    let mut probe = tb.base.clone();
    let active = probe.active_config_bits();
    let hit = active
        .iter()
        .filter_map(|&b| inject_one(&tb, &cfg, b))
        .next();
    assert!(hit.is_some(), "at least one active bit is sensitive");
    let hit = hit.unwrap();
    assert!(hit.output_mask != 0, "mask records affected outputs");
}

#[test]
fn fig7_trace_shows_persistence_until_reset() {
    // Reproduce the Fig. 7 phenomenology: upset a counter state-path bit →
    // outputs diverge; repair does not heal; reset does.
    let nl = gen::counter_adder(6);
    let tb = testbed_for(&nl, &Geometry::tiny(), 700);
    let cfg = CampaignConfig {
        observe_cycles: 48,
        persist_cycles: 64,
        persist_tail: 16,
        ..Default::default()
    };
    let result = run_campaign_wide(&tb, &cfg);
    let persistent = result.persistent_bits();
    assert!(
        !persistent.is_empty(),
        "a counter must have persistent bits"
    );

    let trace = capture_trace(&tb, persistent[0], TraceSchedule::default());
    assert!(
        trace.errors_after_repair > 0,
        "persistent upset keeps erroring after scrub repair"
    );
    assert_eq!(
        trace.errors_after_reset, 0,
        "reset re-synchronises the design"
    );
    // Before the upset: clean.
    assert!(trace.points[..trace.upset_at].iter().all(|p| !p.mismatch));
}

#[test]
fn sim_time_model_matches_paper_constants() {
    let nl = gen::counter_adder(3);
    let tb = testbed_for(&nl, &Geometry::tiny(), 48);
    let cfg = CampaignConfig {
        observe_cycles: 20,
        classify_persistence: false,
        selection: BitSelection::ActiveClosure,
        ..Default::default()
    };
    let r = run_campaign_wide(&tb, &cfg);
    // Every bit of the bitstream is accounted at ≥214 µs.
    let floor = 214e-6 * tb.total_bits() as f64;
    assert!(r.sim_time.as_secs_f64() >= floor * 0.999);
    assert!(r.host_seconds > 0.0);
}

/// The wide campaign's two lane gauges on 16 Counter/Adder. Lanes fill
/// every batch but the last of each group (plain, then augmented), and
/// batching lanes by the node they strike keeps the golden LUTs and
/// flip-flops a batch evaluates under half the network.
#[test]
fn wide_campaign_gauges_lane_utilization_and_cone_share() {
    let tb = testbed_for(&gen::counter_adder(16), &Geometry::small(), 96);
    let telemetry = Telemetry::recording();
    let cfg = CampaignConfig {
        observe_cycles: 64,
        persist_cycles: 64,
        persist_tail: 16,
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    run_campaign_wide(&tb, &cfg);
    let metrics = telemetry.snapshot();
    let gauge = |name: &str| {
        let found = metrics.gauges.iter().find(|(n, _)| n == name);
        found.unwrap_or_else(|| panic!("no gauge {name}")).1
    };

    let mut probe = tb.base.clone();
    let closure = probe.active_config_bits();
    let map = DeltaMap::build_for(&mut probe, &closure);
    let augmented: Vec<bool> = closure
        .iter()
        .filter_map(|&b| match map.classify(&mut probe, b) {
            DeltaClass::Lane(u) => Some(u.is_augmented()),
            _ => None,
        })
        .collect();
    let lanes = augmented.len();
    let augmented = augmented.iter().filter(|&&a| a).count();
    let plain = lanes - augmented;
    let cap = LANES - 1;
    let batches = plain.div_ceil(cap) + augmented.div_ceil(cap);
    assert!(batches > 1, "one batch cannot show the ragged tail");
    assert_eq!(
        gauge("inject.lane_utilization"),
        lanes as f64 / (batches * cap) as f64
    );
    let share = gauge("inject.lane_cone_share");
    assert!(share > 0.0 && share < 0.5, "cone share {share}");
}
