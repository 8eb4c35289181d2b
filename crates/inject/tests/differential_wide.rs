//! Differential equivalence of the word-parallel campaign: for any design
//! and campaign configuration, [`run_campaign_wide`] must reproduce
//! [`run_campaign`] *bit-for-bit* — the same sensitive set, the same
//! first-error cycles, the same output masks, the same persistence
//! classification, and the same bookkeeping (injections, inert bits,
//! simulated time). The wide engine is an optimisation, never an
//! approximation.

use cibola_arch::bits::BitRole;
use cibola_arch::{BitLocus, DeltaClass, DeltaMap, Geometry};
use cibola_inject::{
    run_campaign, run_campaign_wide, BitSelection, CampaignConfig, CampaignResult, Testbed,
};
use cibola_netlist::{gen, implement, Ctrl, Netlist, NetlistBuilder};
use proptest::prelude::*;

/// A design exercising every dynamic resource the wide engine lane-packs:
/// a free-running counter addressing a written LUT-RAM, an SRL16 delay
/// line, and a BRAM port with write-through — the resources whose
/// configuration the *running design* mutates, which is the hardest case
/// for batched repair.
fn dynamic_mix(width: usize, init: u16) -> Netlist {
    let mut b = NetlistBuilder::new("dynamic-mix");
    let din = b.input();
    let q = gen::counter::counter_into(&mut b, width);
    let wen = q[0];
    let ram = b.lut_ram(&q[..2], din, wen, init);
    let srl = b.srl16(&q[..2], din, Ctrl::Net(wen), !init);
    let bram_init: Vec<u16> = (0..256u32)
        .map(|i| (i as u16).wrapping_mul(0x9e37) ^ init)
        .collect();
    let addr: Vec<_> = q.iter().take(4).copied().collect();
    let dout = b.bram(
        &addr,
        &[Some(din), Some(srl), Some(ram)],
        Ctrl::Net(wen),
        Ctrl::One,
        bram_init,
    );
    b.output(ram);
    b.output(srl);
    b.outputs(&dout[..4]);
    b.outputs(&q);
    b.finish()
}

fn design(pick: usize, w: usize, init: u16) -> Netlist {
    match pick % 4 {
        0 => gen::counter_adder(2 + w % 4),
        1 => gen::lfsr_cluster_with(1, 4 + w % 5, 2),
        2 => gen::pipelined_multiplier(2 + w % 2),
        _ => dynamic_mix(2 + w % 3, init),
    }
}

/// The structural designs: one of each generator family plus the
/// dynamic-state mix (BRAM, LUT-RAM and SRL16).
fn structural_designs() -> Vec<Netlist> {
    vec![
        gen::counter_adder(4),
        gen::pipelined_multiplier(3),
        gen::lfsr_cluster_with(1, 6, 2),
        dynamic_mix(3, 0xB7C3),
    ]
}

/// Every closure bit whose flip can rewire the network: slice output and
/// FF D selects, output multiplexers, PIPs, input multiplexers and LUT
/// mode bits — the roles the seed's triage sent to the scalar fallback.
fn routing_bits(tb: &Testbed) -> Vec<usize> {
    tb.base
        .clone()
        .active_config_bits()
        .into_iter()
        .filter(|&b| match tb.base.config().describe(b) {
            BitLocus::Clb { role, .. } => matches!(
                role,
                BitRole::OutSel { .. }
                    | BitRole::FfDmux { .. }
                    | BitRole::OutMux { .. }
                    | BitRole::Pip { .. }
                    | BitRole::InputMux { .. }
                    | BitRole::LutModeBit { .. }
            ),
            _ => false,
        })
        .collect()
}

/// Compare everything an experimenter can observe from the two results —
/// the same key the cross-engine conformance corpus replays.
fn assert_equivalent(scalar: &CampaignResult, wide: &CampaignResult) {
    assert_eq!(
        scalar.equivalence_key(),
        wide.equivalence_key(),
        "scalar and wide campaigns diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random designs × random campaign shapes, sampled within the
    /// closure to keep each case affordable.
    #[test]
    fn wide_matches_scalar_sampled(
        pick in 0usize..4,
        w in 0usize..8,
        init: u16,
        seed: u64,
        observe in 12usize..40,
        persist in 0usize..32,
        classify: bool,
    ) {
        let nl = design(pick, w, init);
        let imp = implement(&nl, &Geometry::tiny()).unwrap();
        let tb = Testbed::new(&imp, seed ^ 0xD1FF, 96);
        let cfg = CampaignConfig {
            observe_cycles: observe,
            persist_cycles: persist,
            persist_tail: 8,
            classify_persistence: classify,
            selection: BitSelection::SampleClosure { fraction: 0.2, seed },
            parallel: true,
            ..Default::default()
        };
        let scalar = run_campaign(&tb, &cfg);
        let wide = run_campaign_wide(&tb, &cfg);
        assert_equivalent(&scalar, &wide);
    }
}

/// Exhaustive active-closure equivalence on the paper's Counter/Adder —
/// the configuration the headline benchmark uses.
#[test]
fn wide_matches_scalar_exhaustive_counter() {
    let nl = gen::counter_adder(4);
    let imp = implement(&nl, &Geometry::tiny()).unwrap();
    let tb = Testbed::new(&imp, 0xC1B07A, 96);
    let cfg = CampaignConfig {
        observe_cycles: 32,
        persist_cycles: 24,
        persist_tail: 8,
        classify_persistence: true,
        selection: BitSelection::ActiveClosure,
        parallel: true,
        ..Default::default()
    };
    let scalar = run_campaign(&tb, &cfg);
    let wide = run_campaign_wide(&tb, &cfg);
    assert!(
        !wide.sensitive.is_empty(),
        "a counter has sensitive bits; the equivalence must not be vacuous"
    );
    assert_equivalent(&scalar, &wide);
}

/// Exhaustive equivalence on the dynamic-state design: LUT-RAM, SRL16 and
/// BRAM write-through all active, so batched corruption, lane repair and
/// the full-restore path are all load-bearing.
#[test]
fn wide_matches_scalar_exhaustive_dynamic() {
    let nl = dynamic_mix(3, 0xB7C3);
    let imp = implement(&nl, &Geometry::tiny()).unwrap();
    let tb = Testbed::new(&imp, 0x5EED, 96);
    assert!(tb.has_dynamic_state, "design must exercise write-through");
    let cfg = CampaignConfig {
        observe_cycles: 32,
        persist_cycles: 24,
        persist_tail: 8,
        classify_persistence: true,
        selection: BitSelection::ActiveClosure,
        parallel: true,
        ..Default::default()
    };
    let scalar = run_campaign(&tb, &cfg);
    let wide = run_campaign_wide(&tb, &cfg);
    assert!(!wide.sensitive.is_empty());
    assert_equivalent(&scalar, &wide);
}

/// The wide path must also agree on the full bitstream (`All`), where the
/// benign-classification shortcuts carry the load.
#[test]
fn wide_matches_scalar_all_bits() {
    let nl = gen::counter_adder(3);
    let imp = implement(&nl, &Geometry::tiny()).unwrap();
    let tb = Testbed::new(&imp, 7, 64);
    let cfg = CampaignConfig {
        observe_cycles: 20,
        persist_cycles: 0,
        classify_persistence: false,
        selection: BitSelection::All,
        parallel: true,
        ..Default::default()
    };
    let scalar = run_campaign(&tb, &cfg);
    let wide = run_campaign_wide(&tb, &cfg);
    assert_equivalent(&scalar, &wide);
}

/// Equivalence under the Virtex-II frame layout, where tile bit indices
/// are scattered across frames: the delta map's dependency recording works
/// on global bit addresses, so the layout must be transparent to it.
#[test]
fn wide_matches_scalar_virtex2_layout() {
    let nl = gen::counter_adder(4);
    let imp = implement(&nl, &Geometry::tiny().with_virtex2_layout()).unwrap();
    let tb = Testbed::new(&imp, 0xC1B07A, 96);
    let cfg = CampaignConfig {
        observe_cycles: 32,
        persist_cycles: 24,
        persist_tail: 8,
        classify_persistence: true,
        selection: BitSelection::ActiveClosure,
        parallel: true,
        ..Default::default()
    };
    let scalar = run_campaign(&tb, &cfg);
    let wide = run_campaign_wide(&tb, &cfg);
    assert!(!wide.sensitive.is_empty());
    assert_equivalent(&scalar, &wide);
}

/// A sampled campaign on the small geometry: more tiles, longer routes,
/// and a closure big enough that batching crosses many chunk boundaries.
#[test]
fn wide_matches_scalar_small_geometry() {
    let nl = gen::counter_adder(12);
    let imp = implement(&nl, &Geometry::small()).unwrap();
    let tb = Testbed::new(&imp, 0x5CA1E, 96);
    let cfg = CampaignConfig {
        observe_cycles: 40,
        persist_cycles: 24,
        persist_tail: 8,
        classify_persistence: true,
        selection: BitSelection::SampleClosure {
            fraction: 0.05,
            seed: 0xFEED,
        },
        parallel: true,
        ..Default::default()
    };
    let scalar = run_campaign(&tb, &cfg);
    let wide = run_campaign_wide(&tb, &cfg);
    assert!(!wide.sensitive.is_empty());
    assert_equivalent(&scalar, &wide);
}

/// Serial and parallel wide campaigns agree (batching must not depend on
/// thread scheduling).
#[test]
fn wide_parallel_agnostic() {
    let nl = dynamic_mix(2, 0x1234);
    let imp = implement(&nl, &Geometry::tiny()).unwrap();
    let tb = Testbed::new(&imp, 0xAB, 80);
    let mut cfg = CampaignConfig {
        observe_cycles: 24,
        persist_cycles: 16,
        persist_tail: 8,
        ..Default::default()
    };
    cfg.parallel = true;
    let a = run_campaign_wide(&tb, &cfg);
    cfg.parallel = false;
    let b = run_campaign_wide(&tb, &cfg);
    assert_eq!(a.equivalence_key(), b.equivalence_key());
}

/// The wide engine reads half-latches from the device it is built from.
/// With one active latch upset on the base (and the golden trace
/// re-captured from it), the wide campaign must still match the scalar
/// one, which reads the latch from each experiment's device.
#[test]
fn wide_honours_upset_half_latch() {
    let imp = implement(&gen::counter_adder(4), &Geometry::tiny()).unwrap();
    let healthy = Testbed::new(&imp, 0xC1B07A, 96);
    let sites = healthy.base.clone().active_half_latch_sites();
    let tb = sites
        .into_iter()
        .find_map(|site| {
            let mut tb = healthy.clone();
            tb.base.upset_half_latch(site);
            let mut dev = tb.base.clone();
            tb.golden = tb.stimulus.iter().map(|iv| dev.step(iv)).collect();
            (tb.golden != healthy.golden).then_some(tb)
        })
        .expect("some active half-latch upset shows at the outputs");
    let cfg = CampaignConfig {
        observe_cycles: 32,
        persist_cycles: 24,
        persist_tail: 8,
        classify_persistence: true,
        selection: BitSelection::SampleClosure {
            fraction: 0.25,
            seed: 0x4A1F,
        },
        parallel: true,
        ..Default::default()
    };
    let scalar = run_campaign(&tb, &cfg);
    let wide = run_campaign_wide(&tb, &cfg);
    assert!(!wide.sensitive.is_empty());
    assert_equivalent(&scalar, &wide);
}

/// Diagnostics mode compiles every flip-flop on the device, observed or
/// not, so each lane's network must keep clocking all of them too: the
/// wide engine seeds every flip-flop's cone, as the scalar compile does.
#[test]
fn wide_matches_scalar_diagnostics_mode() {
    for (nl, seed) in [
        (gen::counter_adder(4), 0xC1B07A),
        (dynamic_mix(3, 0xB7C3), 0x5EED),
    ] {
        let imp = implement(&nl, &Geometry::tiny()).unwrap();
        let mut tb = Testbed::new(&imp, seed, 96);
        tb.base.set_compile_all_state(true);
        let mut dev = tb.base.clone();
        tb.golden = tb.stimulus.iter().map(|iv| dev.step(iv)).collect();
        let cfg = CampaignConfig {
            observe_cycles: 32,
            persist_cycles: 24,
            persist_tail: 8,
            classify_persistence: true,
            selection: BitSelection::ActiveClosure,
            parallel: true,
            ..Default::default()
        };
        let scalar = run_campaign(&tb, &cfg);
        let wide = run_campaign_wide(&tb, &cfg);
        assert!(!wide.sensitive.is_empty(), "{}: vacuous", nl.name);
        assert_equivalent(&scalar, &wide);
    }
}

/// Every rewiring bit of the closure, run as an explicit list on both
/// engines: the out-of-cone reroutes, the lanes settled by repeated
/// sweeps and the scalar residue all meet the scalar oracle bit for bit.
fn routing_bits_match(geom: &Geometry) {
    for nl in structural_designs() {
        let imp = implement(&nl, geom).unwrap();
        let tb = Testbed::new(&imp, 0x5EED, 96);
        let bits = routing_bits(&tb);
        assert!(bits.len() > 100, "{}: too few routing bits", nl.name);
        let cfg = CampaignConfig {
            observe_cycles: 32,
            persist_cycles: 24,
            persist_tail: 8,
            classify_persistence: true,
            selection: BitSelection::List(bits),
            parallel: true,
            ..Default::default()
        };
        let scalar = run_campaign(&tb, &cfg);
        let wide = run_campaign_wide(&tb, &cfg);
        assert!(!wide.sensitive.is_empty(), "{}: vacuous", nl.name);
        assert_equivalent(&scalar, &wide);
    }
}

#[test]
fn wide_matches_scalar_routing_bits() {
    routing_bits_match(&Geometry::tiny());
}

#[test]
fn wide_matches_scalar_routing_bits_virtex2_layout() {
    routing_bits_match(&Geometry::tiny().with_virtex2_layout());
}

/// The scalar fallback keeps only what the wide engine cannot express:
/// every bit the triage still calls structural re-modes a LUT or flips
/// to a network with a combinational cycle.
#[test]
fn structural_residue_is_remodes_and_cycles() {
    for nl in structural_designs() {
        let imp = implement(&nl, &Geometry::tiny()).unwrap();
        let tb = Testbed::new(&imp, 0x5EED, 96);
        let mut probe = tb.base.clone();
        let map = DeltaMap::build(&mut probe);
        let mut residue = 0;
        for b in probe.active_config_bits() {
            if map.classify(&mut probe, b) != DeltaClass::Structural {
                continue;
            }
            residue += 1;
            let remode = matches!(
                tb.base.config().describe(b),
                BitLocus::Clb {
                    role: BitRole::LutModeBit { .. },
                    ..
                }
            );
            let mut dut = tb.base.clone();
            dut.flip_config_bit(b);
            assert!(
                remode || dut.network_stats().has_comb_cycles,
                "{}: bit {b} ({:?}) is structural without a re-mode or a cycle",
                nl.name,
                tb.base.config().describe(b)
            );
        }
        assert!(residue > 0, "{}: no residue to check", nl.name);
    }
}
