//! Statistical-estimator and analysis tests for the campaign machinery.

use cibola_arch::Geometry;
use cibola_inject::{
    role_breakdown, run_campaign_wide, sensitivity_by_cell, BitSelection, CampaignConfig, Testbed,
};
use cibola_netlist::{gen, implement};

fn testbed() -> (
    Testbed,
    cibola_netlist::Implementation,
    cibola_netlist::Netlist,
) {
    let nl = gen::counter_adder(5);
    let imp = implement(&nl, &Geometry::tiny()).unwrap();
    let tb = Testbed::new(&imp, 0xE57, 96);
    (tb, imp, nl)
}

#[test]
fn sample_closure_estimates_exhaustive_sensitivity() {
    let (tb, _, _) = testbed();
    let base_cfg = CampaignConfig {
        observe_cycles: 48,
        classify_persistence: false,
        ..Default::default()
    };
    let full = run_campaign_wide(&tb, &base_cfg);

    for fraction in [0.25, 0.5] {
        let est = run_campaign_wide(
            &tb,
            &CampaignConfig {
                selection: BitSelection::SampleClosure {
                    fraction,
                    seed: 0xE57A,
                },
                ..base_cfg.clone()
            },
        );
        assert!(!est.exhaustive);
        assert!(est.closure_size > 0);
        assert!(est.injections < full.injections);
        let (s_full, s_est) = (full.sensitivity(), est.sensitivity());
        let rel = (s_est - s_full).abs() / s_full;
        assert!(
            rel < 0.25,
            "fraction {fraction}: estimate {s_est:.5} vs exhaustive {s_full:.5} ({rel:.2} rel err)"
        );
    }
}

#[test]
fn sample_closure_failures_extrapolate() {
    let (tb, _, _) = testbed();
    let cfg = CampaignConfig {
        observe_cycles: 48,
        classify_persistence: false,
        selection: BitSelection::SampleClosure {
            fraction: 0.5,
            seed: 2,
        },
        ..Default::default()
    };
    let est = run_campaign_wide(&tb, &cfg);
    // failures() scales the hit rate back to the whole bitstream.
    let expect = (est.sensitivity() * est.total_bits as f64).round() as usize;
    assert_eq!(est.failures(), expect);
    assert!(
        est.failures() > est.sensitive.len(),
        "extrapolated beyond raw hits"
    );
}

#[test]
fn role_breakdown_totals_match_sensitive_count() {
    let (tb, imp, _) = testbed();
    let r = run_campaign_wide(
        &tb,
        &CampaignConfig {
            observe_cycles: 48,
            persist_cycles: 48,
            ..Default::default()
        },
    );
    let roles = role_breakdown(&r, &imp.bitstream);
    let total: usize = roles.by_role.iter().map(|&(_, s, _)| s).sum();
    let persistent: usize = roles.by_role.iter().map(|&(_, _, p)| p).sum();
    assert_eq!(total, r.sensitive.len());
    assert_eq!(
        persistent,
        r.sensitive.iter().filter(|s| s.persistent).count()
    );
}

#[test]
fn cell_attribution_ranks_real_cells() {
    let (tb, imp, nl) = testbed();
    let r = run_campaign_wide(
        &tb,
        &CampaignConfig {
            observe_cycles: 48,
            classify_persistence: false,
            ..Default::default()
        },
    );
    let ranked = sensitivity_by_cell(&r, &imp);
    assert!(!ranked.is_empty());
    for &(ci, n) in &ranked {
        assert!(ci < nl.cells.len());
        assert!(n > 0);
    }
    // Descending order.
    for w in ranked.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
}

#[test]
fn list_selection_runs_exactly_the_requested_bits() {
    let (tb, _, _) = testbed();
    let mut probe = tb.base.clone();
    let some_bits: Vec<usize> = probe.active_config_bits().into_iter().take(50).collect();
    let r = run_campaign_wide(
        &tb,
        &CampaignConfig {
            observe_cycles: 32,
            classify_persistence: false,
            selection: BitSelection::List(some_bits.clone()),
            ..Default::default()
        },
    );
    assert_eq!(r.injections, 50);
    assert!(r.sensitive.iter().all(|s| some_bits.contains(&s.bit)));
}
