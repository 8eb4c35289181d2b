//! Cross-crate integration: the full paper workflow on one design —
//! implement → characterise with the SEU simulator → fly a mission with
//! scrubbing → verify the books balance.

use std::collections::HashMap;

use cibola::prelude::*;

#[test]
fn characterise_then_fly() {
    let geom = Geometry::tiny();
    let nl = cibola::designs::PaperDesign::CounterAdder { width: 6 }.netlist();
    let imp = implement(&nl, &geom).unwrap();

    // 1. SEU-simulator characterisation.
    let tb = Testbed::new(&imp, 3, 128);
    let campaign = run_campaign_wide(
        &tb,
        &CampaignConfig {
            observe_cycles: 48,
            persist_cycles: 48,
            ..Default::default()
        },
    );
    assert!(campaign.sensitivity() > 0.001);
    assert!(campaign.persistence_ratio() > 0.0);

    // 2. Load the payload (one board, three copies) and fly two hours of
    // an accelerated environment.
    let mut payload = Payload::new();
    let mut sens = HashMap::new();
    for _ in 0..3 {
        let pos = payload.load_design(0, "ctr", &geom, &imp.bitstream);
        sens.insert(pos, campaign.sensitive_set());
    }
    let stats = cibola::scrub::run_mission(
        &mut payload,
        &MissionConfig {
            duration: SimDuration::from_secs(7200),
            rates: OrbitRates {
                quiet_per_hour: 240.0,
                flare_per_hour: 240.0,
                devices: 3,
            },
            periodic_full_reconfig: Some(SimDuration::from_secs(1800)),
            ..Default::default()
        },
        &sens,
    );

    // 3. The books must balance.
    assert_eq!(
        stats.upsets_total,
        stats.upsets_config + stats.upsets_half_latch + stats.upsets_user_ff + stats.upsets_fsm
    );
    assert!(stats.upsets_total > 100);
    assert!(stats.detected > 0, "scrubbing detected bitstream upsets");
    assert!(stats.availability > 0.9);
    // All devices end the mission with golden images.
    for (b, f) in payload.positions() {
        assert!(payload
            .fpga(b, f)
            .device
            .config()
            .diff(&imp.bitstream)
            .is_empty());
        assert!(payload.fpga(b, f).device.is_programmed());
    }
}

#[test]
fn selective_tmr_guided_by_campaign_reduces_sensitivity() {
    // The paper's §III-A payoff: use the correlation data to apply TMR to
    // the sensitive cross-section and re-measure.
    let geom = Geometry::small();
    let nl = cibola::designs::PaperDesign::CounterAdder { width: 4 }.netlist();
    let imp = implement(&nl, &geom).unwrap();
    let tb = Testbed::new(&imp, 5, 96);
    let cfg = CampaignConfig {
        observe_cycles: 48,
        classify_persistence: false,
        ..Default::default()
    };
    let before = run_campaign_wide(&tb, &cfg);

    let (protected, _) = tmr(&nl);
    let imp_t = implement(&protected, &geom).unwrap();
    let tb_t = Testbed::new(&imp_t, 5, 96);
    let after = run_campaign_wide(&tb_t, &cfg);

    // TMR triples area, so compare *normalized* sensitivity: failures per
    // occupied slice must drop decisively.
    let (n_before, n_after) = (
        before.normalized_sensitivity(),
        after.normalized_sensitivity(),
    );
    assert!(
        n_after < 0.5 * n_before,
        "TMR should cut normalized sensitivity: {n_before:.4} → {n_after:.4}"
    );
}

#[test]
fn raddrc_plus_scrub_survives_what_unmitigated_cannot() {
    // Hidden-state immunity: upset every active half-latch of each design;
    // the unmitigated one breaks, the RadDRC'd one has none to upset.
    let geom = Geometry::small();
    let nl = cibola::designs::PaperDesign::Mult { width: 4 }.netlist();

    let imp = implement(&nl, &geom).unwrap();
    let mut dev = Device::new(geom.clone());
    dev.configure_full(&imp.bitstream);
    let sites = dev.active_half_latch_sites();
    assert!(!sites.is_empty());
    for s in sites {
        dev.upset_half_latch(s);
    }
    let mut reference = NetlistSim::new(&nl);
    let mut stim = Stimulus::new(1, nl.inputs.len());
    let mut errs = 0;
    for _ in 0..64 {
        let iv = stim.next_vector();
        let hw = dev.step(&iv);
        let mut sw = reference.step(&iv);
        sw.resize(hw.len(), false);
        if hw != sw {
            errs += 1;
        }
    }
    assert!(errs > 0, "mass half-latch upset must break the design");

    let (mit, _) = remove_half_latches(&nl, ConstSource::LutRom, true);
    let imp_m = implement(&mit, &geom).unwrap();
    let mut dev_m = Device::new(geom.clone());
    dev_m.configure_full(&imp_m.bitstream);
    assert!(dev_m.active_half_latch_sites().is_empty());
}

#[test]
fn injection_campaign_timing_reproduces_paper_numbers() {
    // §III-A: 214 µs per bit ⇒ 5.8 Mbit in ≈20 minutes. Our scaled device
    // must extrapolate to the same figure at flight scale.
    let geom = Geometry::tiny();
    let nl = cibola::designs::PaperDesign::CounterAdder { width: 4 }.netlist();
    let imp = implement(&nl, &geom).unwrap();
    let tb = Testbed::new(&imp, 2, 32);
    let r = run_campaign_wide(
        &tb,
        &CampaignConfig {
            observe_cycles: 16,
            classify_persistence: false,
            ..Default::default()
        },
    );
    let per_bit_us = r.sim_time.as_micros_f64() / r.total_bits as f64;
    assert!(
        (214.0..260.0).contains(&per_bit_us),
        "per-bit loop cost {per_bit_us:.1} µs"
    );
    let flight_minutes = per_bit_us * 5_800_000.0 / 60e6;
    assert!(
        (20.0..26.0).contains(&flight_minutes),
        "flight-scale exhaustive estimate {flight_minutes:.1} min (paper: 20)"
    );
}

#[test]
fn self_checking_design_catches_what_readback_cannot() {
    // Paper §IV-A: Andraka's approach for the flight FFT — no readback,
    // just built-in self-test. A MISR signature monitor detects a
    // half-latch upset that leaves the bitstream bit-for-bit clean.
    use cibola::netlist::gen::self_checking;

    let geom = Geometry::small();
    let inner = cibola::designs::PaperDesign::CounterAdder { width: 5 }.netlist();
    let wrapped = self_checking(&inner);
    let imp = implement(&wrapped, &geom).unwrap();

    // Record the golden signature trace.
    let mut golden = Device::new(geom.clone());
    golden.configure_full(&imp.bitstream);
    let trace: Vec<Vec<bool>> = (0..96).map(|_| golden.step(&[])).collect();

    // Upset a critical half-latch on a fresh device: readback-compare sees
    // nothing, but the signature diverges within the checking period.
    let mut dut = Device::new(geom.clone());
    dut.configure_full(&imp.bitstream);
    let site = dut
        .active_half_latch_sites()
        .into_iter()
        .find(|s| matches!(s, HlSite::Slice { pin, .. } if *pin == 10 || *pin == 11))
        .expect("wrapped design still has CE half-latches");
    dut.upset_half_latch(site);
    assert!(
        dut.config().diff(&imp.bitstream).is_empty(),
        "bitstream is clean — scrubbing would never notice"
    );
    let mut caught = false;
    for t in trace.iter() {
        if dut.step(&[]) != *t {
            caught = true;
            break;
        }
    }
    assert!(
        caught,
        "the MISR signature must expose the half-latch upset"
    );
}
