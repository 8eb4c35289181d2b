//! Scrubbing integration tests: detection, repair, escalation, masking,
//! and the on-orbit mission loop (paper §II, Fig. 4).

use std::collections::{HashMap, HashSet};

use cibola_arch::{Geometry, SimDuration, SimTime};
use cibola_netlist::{gen, implement};
use cibola_radiation::{OrbitRates, TargetMix};
use cibola_scrub::{
    masked_frames_for, run_mission, CrcCodebook, FaultManager, MissionConfig, Payload, SohEvent,
    DEGRADE_AFTER, MAX_FRAME_ATTEMPTS,
};

fn implemented(nl: &cibola_netlist::Netlist, geom: &Geometry) -> cibola_netlist::Implementation {
    implement(nl, geom).unwrap()
}

#[test]
fn scan_detects_and_repair_restores() {
    let geom = Geometry::tiny();
    let imp = implemented(&gen::counter_adder(4), &geom);
    let masked = masked_frames_for(&imp.bitstream);
    let mut mgr = FaultManager::new(CrcCodebook::new(&imp.bitstream, &masked));
    let mut dev = cibola_arch::Device::new(geom.clone());
    dev.configure_full(&imp.bitstream);

    // Clean device: nothing found.
    let clean = mgr.scan(&mut dev);
    assert!(clean.corrupt.is_empty());
    assert!(clean.duration.as_nanos() > 0);

    // Flip a bit; the scan must name exactly its frame.
    let mut probe = dev.clone();
    let victim = probe.active_config_bits()[10];
    dev.flip_config_bit(victim);
    let (addr, _) = imp.bitstream.locate(victim);
    let report = mgr.scan(&mut dev);
    assert_eq!(report.corrupt.len(), 1);
    assert_eq!(report.corrupt[0].addr, addr);

    // Repair from golden and verify the image matches again.
    let golden = imp.bitstream.read_frame(addr);
    mgr.repair(&mut dev, addr, &golden);
    assert!(dev.config().diff(&imp.bitstream).is_empty());
    assert!(mgr.scan(&mut dev).corrupt.is_empty());
}

#[test]
fn masked_frames_cover_dynamic_luts_and_bram() {
    let geom = Geometry::tiny();
    // A design with an SRL16 and a BRAM.
    let mut b = cibola_netlist::NetlistBuilder::new("dyn");
    let x = b.input();
    let one = b.const_net(true);
    let tap = b.srl16(&[one], x, cibola_netlist::Ctrl::One, 0);
    let ctr = [tap, one];
    let dout = b.bram(
        &ctr,
        &[],
        cibola_netlist::Ctrl::Zero,
        cibola_netlist::Ctrl::One,
        (0..256).map(|a| a as u16).collect(),
    );
    b.output(dout[0]);
    let nl = b.finish();
    let imp = implemented(&nl, &geom);
    let masked = masked_frames_for(&imp.bitstream);
    assert!(!masked.is_empty(), "dynamic design must mask frames");

    // The codebook skips them, so a running design that writes its own
    // memory never trips the scrubber.
    let mut mgr = FaultManager::new(CrcCodebook::new(&imp.bitstream, &masked));
    let mut dev = cibola_arch::Device::new(geom);
    dev.configure_full(&imp.bitstream);
    for c in 0..32 {
        dev.step(&[c % 3 == 0]);
    }
    assert!(dev.design_wrote_config(), "SRL16 wrote its table");
    let report = mgr.scan(&mut dev);
    assert!(
        report.corrupt.is_empty(),
        "legitimate run-time writes must not look like SEUs"
    );
}

#[test]
fn unprogrammed_device_escalates_to_full_reconfig() {
    let geom = Geometry::tiny();
    let imp = implemented(&gen::counter_adder(4), &geom);
    let mut payload = Payload::new();
    let (b, f) = payload.load_design(0, "ctr", &geom, &imp.bitstream);

    payload.fpga_mut(b, f).device.upset_config_fsm();
    let out = payload.scrub_board(b, SimTime::ZERO, &[true]);
    assert_eq!(out.full_reconfigs, 1);
    assert!(payload.fpga(b, f).device.is_programmed());
    assert!(payload
        .soh
        .iter()
        .any(|r| matches!(r.event, SohEvent::FullReconfig)));
}

#[test]
fn scrub_cycle_near_180ms_for_three_flight_devices() {
    // Paper §II-A: "each configuration is read every 180 ms" for the three
    // XQVR1000s of one board.
    let geom = Geometry::xqvr1000();
    let blank = cibola_arch::ConfigMemory::new(geom.clone());
    let mut payload = Payload::new();
    for _ in 0..3 {
        payload.load_design(0, "app", &geom, &blank);
    }
    let cycle = payload.board_scan_cycle(0);
    let ms = cycle.as_millis_f64();
    assert!(
        (120.0..260.0).contains(&ms),
        "scan cycle {ms:.1} ms should be of the paper's 180 ms order"
    );
}

#[test]
fn payload_soh_records_detection_and_repair() {
    let geom = Geometry::tiny();
    let imp = implemented(&gen::counter_adder(4), &geom);
    let mut payload = Payload::new();
    let (b, f) = payload.load_design(0, "ctr", &geom, &imp.bitstream);

    let mut probe = payload.fpga(b, f).device.clone();
    let victim = probe.active_config_bits()[3];
    payload.fpga_mut(b, f).device.flip_config_bit(victim);

    let out = payload.scrub_board(b, SimTime::ZERO, &[true]);
    assert_eq!(out.frames_repaired, 1);
    let kinds: Vec<_> = payload.soh.iter().map(|r| r.event).collect();
    assert!(kinds
        .iter()
        .any(|e| matches!(e, SohEvent::FrameCorrupt { .. })));
    assert!(kinds
        .iter()
        .any(|e| matches!(e, SohEvent::FrameRepaired { .. })));
    assert!(payload
        .fpga(b, f)
        .device
        .config()
        .diff(&imp.bitstream)
        .is_empty());
}

#[test]
fn flash_ecc_protects_golden_frames_during_repair() {
    let geom = Geometry::tiny();
    let imp = implemented(&gen::counter_adder(4), &geom);
    let mut payload = Payload::new();
    let (b, f) = payload.load_design(0, "ctr", &geom, &imp.bitstream);

    // Upset the FLASH copy and the device.
    for w in (0..payload.flash.slot_words(0)).step_by(37) {
        payload.flash.upset_data_bit(0, w, w % 64);
    }
    let mut probe = payload.fpga(b, f).device.clone();
    let victim = probe.active_config_bits()[0];
    payload.fpga_mut(b, f).device.flip_config_bit(victim);

    payload.scrub_board(b, SimTime::ZERO, &[true]);
    assert!(
        payload
            .fpga(b, f)
            .device
            .config()
            .diff(&imp.bitstream)
            .is_empty(),
        "repair used ECC-corrected golden data"
    );
    assert!(payload.ecc_stats.corrected > 0);
}

/// A FLASH correction is logged when the fetch happens, not at the start
/// of the pass: the SOH log never goes backwards in time.
#[test]
fn flash_correction_is_stamped_in_pass_order() {
    let geom = Geometry::tiny();
    let imp = implemented(&gen::counter_adder(4), &geom);
    let mut payload = Payload::new();
    let (b, f) = payload.load_design(0, "ctr", &geom, &imp.bitstream);
    for w in (0..payload.flash.slot_words(0)).step_by(37) {
        payload.flash.upset_data_bit(0, w, w % 64);
    }
    let mut probe = payload.fpga(b, f).device.clone();
    let victim = probe.active_config_bits()[0];
    payload.fpga_mut(b, f).device.flip_config_bit(victim);

    let start = SimTime::from_secs(10);
    payload.scrub_board(b, start, &[true]);
    let times: Vec<u64> = payload.soh.iter().map(|r| r.time_ns).collect();
    assert!(payload
        .soh
        .iter()
        .any(|r| matches!(r.event, SohEvent::FlashCorrected { .. })));
    assert!(times[0] >= start.as_nanos(), "SOH log: {:?}", payload.soh);
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "SOH log goes backwards: {:?}",
        payload.soh
    );
}

#[test]
fn mission_detects_and_repairs_under_flare_load() {
    let geom = Geometry::tiny();
    let imp = implemented(&gen::counter_adder(4), &geom);
    let mut payload = Payload::new();
    let mut sens: HashMap<(usize, usize), HashSet<usize>> = HashMap::new();
    for board in 0..3 {
        for _ in 0..3 {
            let (bb, ff) = payload.load_design(board, "ctr", &geom, &imp.bitstream);
            sens.insert((bb, ff), HashSet::new()); // map provided below
        }
    }
    // A modest sensitivity map: first 64 active bits.
    let mut probe = payload.fpga(0, 0).device.clone();
    let map: HashSet<usize> = probe.active_config_bits().into_iter().take(64).collect();
    for v in sens.values_mut() {
        *v = map.clone();
    }

    let cfg = MissionConfig {
        duration: SimDuration::from_secs(2 * 3600),
        rates: OrbitRates {
            // Accelerated environment so the test sees plenty of events.
            quiet_per_hour: 400.0,
            flare_per_hour: 3200.0,
            devices: 9,
        },
        mix: TargetMix::default(),
        flare: Some((SimTime::from_secs(1800), SimTime::from_secs(3600))),
        // Refresh every 15 minutes so half-latch upsets are bounded, as a
        // flight operations plan would.
        periodic_full_reconfig: Some(SimDuration::from_secs(900)),
        sefi: None,
        seed: 42,
        soh_downlink: None,
    };
    let stats = run_mission(&mut payload, &cfg, &sens);

    assert!(stats.upsets_total > 200, "upsets {}", stats.upsets_total);
    assert!(stats.upsets_config > stats.upsets_half_latch * 50);
    assert!(
        stats.detected + stats.full_reconfigs > 0,
        "scrubbing found work"
    );
    // Detection latency is bounded by the scan cadence (plus repair time).
    assert!(stats.detect_latency_mean_ms > 0.0);
    assert!(
        stats.detect_latency_max_ms <= 4.0 * stats.scan_cycle_ms.max(1.0) + 50.0,
        "latency {} vs cycle {}",
        stats.detect_latency_max_ms,
        stats.scan_cycle_ms
    );
    assert!(
        stats.availability > 0.95,
        "availability {}",
        stats.availability
    );
    assert!(stats.soh_records > 0);

    // Every repairable upset was eventually cleaned.
    for (b, f) in payload.positions() {
        assert!(payload
            .fpga(b, f)
            .device
            .config()
            .diff(&imp.bitstream)
            .is_empty());
    }
}

#[test]
fn mission_availability_degrades_without_scrub_sensitivity_knowledge() {
    // Without a sensitivity map every config upset counts sensitive —
    // availability is a conservative lower bound.
    let geom = Geometry::tiny();
    let imp = implemented(&gen::counter_adder(4), &geom);
    let mut payload = Payload::new();
    payload.load_design(0, "ctr", &geom, &imp.bitstream);
    let cfg = MissionConfig {
        duration: SimDuration::from_secs(3600),
        rates: OrbitRates {
            quiet_per_hour: 1000.0,
            flare_per_hour: 1000.0,
            devices: 1,
        },
        mix: TargetMix::config_only(),
        flare: None,
        periodic_full_reconfig: None,
        sefi: None,
        seed: 7,
        soh_downlink: None,
    };
    let stats = run_mission(&mut payload, &cfg, &HashMap::new());
    assert!(stats.sensitive_upsets >= stats.upsets_config - stats.upsets_config_masked);
    assert!(stats.availability < 1.0);
    assert!(stats.availability > 0.5);
}

#[test]
fn rmw_repair_preserves_live_shift_data_while_fixing_static_bits() {
    // Paper §IV-B: naive frame restoration clobbers run-time LUT/BRAM
    // contents; a read-modify-write repair fixes the static corruption and
    // keeps the live bits.
    use cibola_scrub::dynamic_bits_for;

    let geom = Geometry::tiny();
    // An SRL16 design: shifting a constant-1 stream, so its truth table is
    // live state.
    let mut b = cibola_netlist::NetlistBuilder::new("srl-rmw");
    let x = b.input();
    let one = b.const_net(true);
    let tap = b.srl16(&[one, one], x, cibola_netlist::Ctrl::One, 0);
    b.output(tap);
    let nl = b.finish();
    let imp = implemented(&nl, &geom);
    let mask = dynamic_bits_for(&imp.bitstream);
    assert!(mask.frames_with_live_bits() > 0);

    let mut dev = cibola_arch::Device::new(geom.clone());
    dev.configure_full(&imp.bitstream);
    for _ in 0..20 {
        dev.step(&[true]);
    }

    // Find the frame holding the SRL truth table and a *static* bit in the
    // same frame to corrupt.
    let fi = (0..imp.bitstream.frame_count())
        .find(|&f| !mask.live_offsets(f).is_empty())
        .unwrap();
    let addr = imp.bitstream.frame_addr(fi);
    let live: std::collections::HashSet<usize> = mask.live_offsets(fi).iter().copied().collect();
    let frame_bits = imp.bitstream.frame_bits(addr.block);
    let static_off = (0..frame_bits).find(|o| !live.contains(o)).unwrap();
    let global = imp.bitstream.frame_base(addr) + static_off;
    dev.flip_config_bit(global);

    // Snapshot the live table contents, then RMW-repair with the clock
    // stopped (per the paper's assumption).
    dev.set_clock_running(false);
    let before_live: Vec<bool> = mask
        .live_offsets(fi)
        .iter()
        .map(|&o| dev.config().get_bit(imp.bitstream.frame_base(addr) + o))
        .collect();
    let masked = cibola_scrub::masked_frames_for(&imp.bitstream);
    let mgr = FaultManager::new(cibola_scrub::CrcCodebook::new(&imp.bitstream, &masked));
    let golden = imp.bitstream.read_frame(addr);
    mgr.repair_rmw(&mut dev, fi, addr, &golden, &mask);

    // Static corruption fixed…
    assert_eq!(
        dev.config().get_bit(global),
        imp.bitstream.get_bit(global),
        "static bit repaired"
    );
    // …and the live shift-register contents survived.
    let after_live: Vec<bool> = mask
        .live_offsets(fi)
        .iter()
        .map(|&o| dev.config().get_bit(imp.bitstream.frame_base(addr) + o))
        .collect();
    assert_eq!(before_live, after_live, "live data preserved");
    assert!(
        before_live.iter().any(|&v| v),
        "shift register had accumulated live ones"
    );

    // Contrast: the naive repair wipes the live data back to init (0).
    let mut naive = cibola_arch::Device::new(geom);
    naive.configure_full(&imp.bitstream);
    for _ in 0..20 {
        naive.step(&[true]);
    }
    naive.set_clock_running(false);
    naive.partial_configure_frame(addr, &golden);
    let wiped: Vec<bool> = mask
        .live_offsets(fi)
        .iter()
        .map(|&o| naive.config().get_bit(imp.bitstream.frame_base(addr) + o))
        .collect();
    assert!(wiped.iter().all(|&v| !v), "naive repair clobbers live data");
}

#[test]
fn rmw_repair_with_simultaneous_static_and_live_corruption_in_one_frame() {
    // Worst case for §IV-B: a single frame takes *both* a static-bit upset
    // and a live LUT-RAM upset. The RMW repair must restore the static bit
    // from golden, and must leave the live bit at its *current* device
    // value — even a corrupted one — because run-time state is opaque to
    // the scrubber (a flipped shift-register bit is indistinguishable from
    // legitimate data; only the design's own reset path can clean it).
    use cibola_scrub::dynamic_bits_for;

    let geom = Geometry::tiny();
    let mut b = cibola_netlist::NetlistBuilder::new("srl-rmw-both");
    let x = b.input();
    let one = b.const_net(true);
    let tap = b.srl16(&[one, one], x, cibola_netlist::Ctrl::One, 0);
    b.output(tap);
    let nl = b.finish();
    let imp = implemented(&nl, &geom);
    let mask = dynamic_bits_for(&imp.bitstream);

    let mut dev = cibola_arch::Device::new(geom);
    dev.configure_full(&imp.bitstream);
    // Shift in ones so every live offset in the frame carries a 1 — a
    // known pre-corruption value we can reason about exactly.
    for _ in 0..20 {
        dev.step(&[true]);
    }

    let fi = (0..imp.bitstream.frame_count())
        .find(|&f| !mask.live_offsets(f).is_empty())
        .unwrap();
    let addr = imp.bitstream.frame_addr(fi);
    let base = imp.bitstream.frame_base(addr);
    let live: std::collections::HashSet<usize> = mask.live_offsets(fi).iter().copied().collect();
    let frame_bits = imp.bitstream.frame_bits(addr.block);

    // Upset one static and one live bit of the same frame.
    let static_off = (0..frame_bits).find(|o| !live.contains(o)).unwrap();
    let live_off = *mask
        .live_offsets(fi)
        .iter()
        .find(|&&o| dev.config().get_bit(base + o))
        .expect("a live offset holding a shifted-in 1");
    dev.flip_config_bit(base + static_off);
    dev.flip_config_bit(base + live_off);
    assert!(
        !dev.config().get_bit(base + live_off),
        "live bit corrupted to 0"
    );

    dev.set_clock_running(false);
    let masked = cibola_scrub::masked_frames_for(&imp.bitstream);
    let mgr = FaultManager::new(cibola_scrub::CrcCodebook::new(&imp.bitstream, &masked));
    let golden = imp.bitstream.read_frame(addr);
    mgr.repair_rmw(&mut dev, fi, addr, &golden, &mask);

    // The static upset is gone…
    assert_eq!(
        dev.config().get_bit(base + static_off),
        imp.bitstream.get_bit(base + static_off),
        "static bit restored from golden"
    );
    // …every *other* live bit kept its run-time value…
    for &o in mask.live_offsets(fi).iter().filter(|&&o| o != live_off) {
        assert!(
            dev.config().get_bit(base + o),
            "untouched live bit at offset {o} survived the repair"
        );
    }
    // …and the corrupted live bit stays at its corrupted current value:
    // RMW writes back what the device holds, never the golden image, for
    // dynamic offsets.
    assert!(
        !dev.config().get_bit(base + live_off),
        "corrupted live bit must pass through RMW unchanged (not golden-restored)"
    );

    // Resuming the clock shifts fresh ones through the SRL, flushing the
    // corrupted word — the design-level recovery path the paper assigns to
    // user state.
    dev.set_clock_running(true);
    for _ in 0..20 {
        dev.step(&[true]);
    }
    assert!(
        dev.config().get_bit(base + live_off),
        "live corruption flushes out through normal shifting after repair"
    );
}

// ---------------------------------------------------------------------------
// Fault-tolerant scrub pipeline: SEFIs, codebook corruption, escalation.
// ---------------------------------------------------------------------------

use cibola_arch::{ReadFault, WriteFault};
use cibola_radiation::sefi::{SefiMix, SefiRates};
use cibola_radiation::SefiConfig;
use cibola_scrub::MissionStats;

fn nine_fpga_payload(geom: &Geometry) -> (Payload, cibola_netlist::Implementation) {
    let imp = implemented(&gen::counter_adder(4), geom);
    let mut payload = Payload::new();
    for board in 0..3 {
        for _ in 0..3 {
            payload.load_design(board, "ctr", geom, &imp.bitstream);
        }
    }
    (payload, imp)
}

#[test]
fn mission_matches_pre_sefi_baseline_exactly_when_faults_off() {
    // The robustness layer must be zero-cost when its fault processes are
    // disabled. The expected values are the stats of this exact mission
    // recorded on the pre-SEFI simulator (commit 3be1a7c); every counter
    // and every float must match bit-for-bit.
    let geom = Geometry::tiny();
    let (mut payload, _imp) = nine_fpga_payload(&geom);
    let cfg = MissionConfig {
        duration: SimDuration::from_secs(1800),
        rates: OrbitRates {
            quiet_per_hour: 400.0,
            flare_per_hour: 3200.0,
            devices: 9,
        },
        mix: TargetMix::default(),
        flare: Some((SimTime::from_secs(600), SimTime::from_secs(1200))),
        periodic_full_reconfig: Some(SimDuration::from_secs(900)),
        sefi: None,
        seed: 42,
        soh_downlink: None,
    };
    let stats = run_mission(&mut payload, &cfg, &HashMap::new());

    assert_eq!(stats.upsets_total, 649);
    assert_eq!(stats.upsets_config, 647);
    assert_eq!(stats.detected, 647);
    assert_eq!(stats.frames_repaired, 647);
    assert_eq!(stats.full_reconfigs, 18);
    assert_eq!(stats.scrub_cycles, 191586);
    assert_eq!(stats.scan_cycle_ms, 9.39528);
    assert_eq!(stats.unavailable_ms, 359283.232726);
    assert_eq!(stats.availability, 0.9778220226712345);
    assert_eq!(stats.detect_latency_mean_ms, 4.71837553941267);
    assert_eq!(stats.detect_latency_max_ms, 9.390018);
    assert_eq!(stats.soh_records, 1312);

    // And the robustness machinery reports it did nothing.
    assert_eq!(stats.sefis_injected, 0);
    assert_eq!(stats.ladder.sefis_observed, 0);
    assert_eq!(stats.ladder.repair_retries, 0);
    assert_eq!(stats.ladder.verify_failures, 0);
    assert_eq!(stats.ladder.codebook_rebuilds, 0);
    assert_eq!(stats.ladder.port_resets, 0);
    assert_eq!(stats.ladder.frames_escalated, 0);
    assert_eq!(stats.ladder.devices_degraded, 0);
}

fn chaos_config() -> MissionConfig {
    MissionConfig {
        duration: SimDuration::from_secs(3600),
        rates: OrbitRates {
            // The paper's 1.2/h (quiet) and 9.6/h (flare) accelerated
            // ×333 so a one-hour simulated mission sees a real storm.
            quiet_per_hour: 400.0,
            flare_per_hour: 3200.0,
            devices: 9,
        },
        mix: TargetMix::default(),
        flare: Some((SimTime::from_secs(900), SimTime::from_secs(1800))),
        periodic_full_reconfig: Some(SimDuration::from_secs(1800)),
        // SEFIs at the same ×333 acceleration of their paper-scale rates
        // (0.02/h quiet, 0.16/h flare — ≈60× below the SEU rate).
        sefi: Some(SefiConfig {
            rates: SefiRates {
                quiet_per_hour: 6.7,
                flare_per_hour: 53.0,
                devices: 9,
            },
            mix: SefiMix::default(),
        }),
        seed: 42,
        soh_downlink: None,
    }
}

#[test]
fn chaos_mission_survives_sefi_and_codebook_storm() {
    let geom = Geometry::tiny();
    let (mut payload, imp) = nine_fpga_payload(&geom);
    let cfg = chaos_config();
    let stats = run_mission(&mut payload, &cfg, &HashMap::new());

    // The environment really did attack the fault-management path...
    assert!(stats.sefis_injected > 10, "sefis {}", stats.sefis_injected);
    assert_eq!(
        stats.sefis_injected,
        stats.sefi_readback_corrupt
            + stats.sefi_readback_abort
            + stats.sefi_write_silent
            + stats.sefi_port_wedge
            + stats.sefi_unprogram
            + stats.codebook_upsets
    );
    // ...and the scrubber visibly fought back on every front.
    assert!(
        stats.ladder.sefis_observed > 0,
        "ports aborted/wedged under scan"
    );
    assert!(
        stats.ladder.repair_retries > 0,
        "verify-after-write retried"
    );
    assert!(stats.ladder.verify_failures > 0, "silent drops were caught");
    assert!(
        stats.ladder.codebook_rebuilds > 0,
        "codebook healed from FLASH"
    );
    assert!(
        stats.ladder.port_resets > 0,
        "wedged ports were power-cycled"
    );

    // No device ends the mission wedged: every wedge was power-cycled.
    for (b, f) in payload.positions() {
        let fpga = payload.fpga(b, f);
        assert!(
            fpga.health.degraded || !fpga.device.is_port_wedged(),
            "board {b} fpga {f} left wedged"
        );
    }

    // No silent loss: after draining any still-pending injected faults,
    // one clean scrub pass leaves every non-degraded device golden.
    for b in 0..3 {
        let nf = payload.boards[b].fpgas.len();
        for f in 0..nf {
            payload.fpga_mut(b, f).device.port_reset();
        }
        payload.scrub_board(b, SimTime::ZERO + cfg.duration, &[true, true, true]);
        for f in 0..nf {
            let fpga = payload.fpga(b, f);
            if !fpga.health.degraded {
                assert!(
                    fpga.device.config().diff(&imp.bitstream).is_empty(),
                    "board {b} fpga {f} has unreported corruption"
                );
                assert!(fpga.device.is_programmed());
            }
        }
    }

    // Availability bound: the storm costs something, but the ladder keeps
    // the payload flying.
    assert!(
        stats.availability > 0.90,
        "availability {}",
        stats.availability
    );
}

#[test]
fn chaos_mission_replays_bit_identically_from_seed() {
    // Failures must be replayable from the seed alone (this is the seed
    // the chaos test flies, so a CI failure there reproduces here).
    let geom = Geometry::tiny();
    let cfg = chaos_config();
    let run = |seed: u64| -> MissionStats {
        let (mut payload, _) = nine_fpga_payload(&geom);
        let mut c = cfg.clone();
        c.duration = SimDuration::from_secs(900);
        c.seed = seed;
        run_mission(&mut payload, &c, &HashMap::new())
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "different seed, different weather");
}

#[test]
fn silent_drop_is_caught_by_verify_and_retried() {
    let geom = Geometry::tiny();
    let imp = implemented(&gen::counter_adder(4), &geom);
    let mut payload = Payload::new();
    let (b, f) = payload.load_design(0, "ctr", &geom, &imp.bitstream);

    let mut probe = payload.fpga(b, f).device.clone();
    let victim = probe.active_config_bits()[5];
    payload.fpga_mut(b, f).device.flip_config_bit(victim);
    // The next frame write is acknowledged but dropped (SEFI).
    payload
        .fpga_mut(b, f)
        .device
        .inject_write_fault(WriteFault::SilentDrop);

    let out = payload.scrub_board(b, SimTime::ZERO, &[true]);
    assert_eq!(
        out.ladder.verify_failures, 1,
        "the dropped write was caught"
    );
    assert_eq!(out.ladder.repair_retries, 1, "and retried once");
    assert_eq!(out.frames_repaired, 1, "the retry stuck");
    assert_eq!(out.ladder.frames_escalated, 0);
    assert!(payload
        .fpga(b, f)
        .device
        .config()
        .diff(&imp.bitstream)
        .is_empty());
    let kinds: Vec<_> = payload.soh.iter().map(|r| r.event).collect();
    assert!(kinds
        .iter()
        .any(|e| matches!(e, SohEvent::VerifyFailed { .. })));
    assert!(kinds
        .iter()
        .any(|e| matches!(e, SohEvent::RepairRetry { .. })));
}

#[test]
fn exhausted_frame_retries_escalate_to_full_reconfig() {
    let geom = Geometry::tiny();
    let imp = implemented(&gen::counter_adder(4), &geom);
    let mut payload = Payload::new();
    let (b, f) = payload.load_design(0, "ctr", &geom, &imp.bitstream);

    let mut probe = payload.fpga(b, f).device.clone();
    let victim = probe.active_config_bits()[5];
    payload.fpga_mut(b, f).device.flip_config_bit(victim);
    // Drop every bounded repair attempt (3).
    for _ in 0..MAX_FRAME_ATTEMPTS {
        payload
            .fpga_mut(b, f)
            .device
            .inject_write_fault(WriteFault::SilentDrop);
    }

    let out = payload.scrub_board(b, SimTime::ZERO, &[true]);
    assert_eq!(out.ladder.frames_escalated, 1, "frame repair gave up");
    assert_eq!(out.full_reconfigs, 1, "and the ladder reconfigured");
    assert_eq!(out.devices_cleaned, vec![f]);
    assert!(payload
        .fpga(b, f)
        .device
        .config()
        .diff(&imp.bitstream)
        .is_empty());
    assert!(!payload.fpga(b, f).health.degraded);
}

#[test]
fn corrupt_codebook_is_self_detected_and_rebuilt_from_flash() {
    let geom = Geometry::tiny();
    let imp = implemented(&gen::counter_adder(4), &geom);
    let mut payload = Payload::new();
    let (b, f) = payload.load_design(0, "ctr", &geom, &imp.bitstream);

    // An SRAM upset flips a stored frame CRC.
    payload.fpga_mut(b, f).manager.codebook.upset(2, 7);
    assert!(!payload.fpga(b, f).manager.codebook.self_check());

    // Without the self-check this would "detect" a phantom corruption and
    // pointlessly rewrite frame 2 forever. Instead the book heals first.
    let out = payload.scrub_board(b, SimTime::ZERO, &[true]);
    assert_eq!(out.ladder.codebook_rebuilds, 1);
    assert!(payload.fpga(b, f).manager.codebook.self_check());
    assert_eq!(out.frames_repaired, 0, "no phantom repairs");
    let kinds: Vec<_> = payload.soh.iter().map(|r| r.event).collect();
    assert!(kinds.iter().any(|e| matches!(e, SohEvent::CodebookCorrupt)));
    assert!(kinds.iter().any(|e| matches!(e, SohEvent::CodebookRebuilt)));
}

#[test]
fn wedged_port_is_power_cycled_and_the_pass_completes() {
    let geom = Geometry::tiny();
    let imp = implemented(&gen::counter_adder(4), &geom);
    let mut payload = Payload::new();
    let (b, f) = payload.load_design(0, "ctr", &geom, &imp.bitstream);

    let mut probe = payload.fpga(b, f).device.clone();
    let victim = probe.active_config_bits()[5];
    payload.fpga_mut(b, f).device.flip_config_bit(victim);
    // A SEFI wedges the port mid-scan.
    payload
        .fpga_mut(b, f)
        .device
        .inject_read_fault(ReadFault::Wedge);

    let out = payload.scrub_board(b, SimTime::ZERO, &[true]);
    assert!(out.ladder.port_resets >= 1, "the port was power-cycled");
    assert!(out.ladder.sefis_observed >= 1);
    assert_eq!(out.frames_repaired, 1, "the rescan still found the upset");
    assert!(!payload.fpga(b, f).device.is_port_wedged());
    assert!(payload
        .fpga(b, f)
        .device
        .config()
        .diff(&imp.bitstream)
        .is_empty());
}

#[test]
fn unreadable_golden_degrades_device_instead_of_livelocking() {
    let geom = Geometry::tiny();
    let imp = implemented(&gen::counter_adder(4), &geom);
    let mut payload = Payload::new();
    let (b, f) = payload.load_design(0, "ctr", &geom, &imp.bitstream);

    // A double-bit FLASH upset makes the golden image uncorrectable, and
    // a configuration-FSM upset unprograms the device: every rung of the
    // ladder that needs golden data now fails.
    payload.flash.upset_data_bit(0, 3, 5);
    payload.flash.upset_data_bit(0, 3, 9);
    payload.fpga_mut(b, f).device.upset_config_fsm();

    let mut degraded_at = None;
    for pass in 0..DEGRADE_AFTER + 1 {
        let out = payload.scrub_board(b, SimTime::ZERO, &[true]);
        assert!(out.ladder.golden_uncorrectable > 0 || degraded_at.is_some());
        if out.ladder.devices_degraded > 0 {
            degraded_at = Some(pass);
        }
    }
    assert_eq!(
        degraded_at,
        Some(DEGRADE_AFTER - 1),
        "degraded after exactly the policy bound"
    );
    assert!(payload.fpga(b, f).health.degraded);
    let kinds: Vec<_> = payload.soh.iter().map(|r| r.event).collect();
    assert!(kinds
        .iter()
        .any(|e| matches!(e, SohEvent::GoldenImageUncorrectable)));
    assert!(kinds.iter().any(|e| matches!(e, SohEvent::DeviceDegraded)));

    // Degraded devices are out of the rotation: a further pass is free
    // and does not retry the dead golden image.
    let soh_before = payload.soh.len();
    let out = payload.scrub_board(b, SimTime::ZERO, &[true]);
    assert_eq!(out.duration, SimDuration::ZERO);
    assert_eq!(payload.soh.len(), soh_before);
}

#[test]
fn scrubber_never_repairs_live_lutram_frames() {
    // Regression for the readback-hazard interaction: frames holding live
    // LUT-RAM/SRL state are masked in the codebook, and nothing in the
    // hardened pipeline — scan, repair, verify, rescan — may ever write
    // them, or it would clobber run-time state the design is using.
    let geom = Geometry::tiny();
    let mut b = cibola_netlist::NetlistBuilder::new("live-srl");
    let x = b.input();
    let one = b.const_net(true);
    let tap = b.srl16(&[one, one], x, cibola_netlist::Ctrl::One, 0);
    b.output(tap);
    let nl = b.finish();
    let imp = implemented(&nl, &geom);
    let masked = masked_frames_for(&imp.bitstream);
    assert!(!masked.is_empty(), "SRL16 design must mask frames");

    let mut payload = Payload::new();
    let (bd, f) = payload.load_design(0, "srl", &geom, &imp.bitstream);

    // Run the design so the shift register accumulates live ones — the
    // masked frames now differ from the golden image.
    for _ in 0..24 {
        payload.fpga_mut(bd, f).device.step(&[true]);
    }
    assert!(payload.fpga(bd, f).device.design_wrote_config());
    let live_before: Vec<Vec<u8>> = masked
        .iter()
        .map(|&fi| {
            let addr = imp.bitstream.frame_addr(fi);
            payload.fpga(bd, f).device.config().read_frame(addr)
        })
        .collect();
    assert!(
        live_before
            .iter()
            .zip(masked.iter())
            .any(|(bytes, &fi)| *bytes != imp.bitstream.read_frame(imp.bitstream.frame_addr(fi))),
        "live state diverged from golden"
    );

    // Corrupt a static bit in an unmasked frame, and make the pass rough:
    // a corrupt-readback SEFI plus a dropped write force retries and a
    // rescan through the hardened path.
    let victim_fi = (0..imp.bitstream.frame_count())
        .find(|fi| !masked.contains(fi))
        .unwrap();
    let victim_addr = imp.bitstream.frame_addr(victim_fi);
    let global = imp.bitstream.frame_base(victim_addr);
    payload.fpga_mut(bd, f).device.flip_config_bit(global);
    payload
        .fpga_mut(bd, f)
        .device
        .inject_read_fault(ReadFault::Corrupt { bit_flips: 2 });
    payload
        .fpga_mut(bd, f)
        .device
        .inject_write_fault(WriteFault::SilentDrop);

    payload.scrub_board(bd, SimTime::ZERO, &[true]);

    // The static corruption was repaired...
    assert_eq!(
        payload.fpga(bd, f).device.config().get_bit(global),
        imp.bitstream.get_bit(global)
    );
    // ...and every masked frame kept its live contents, bit for bit.
    for (&fi, before) in masked.iter().zip(live_before.iter()) {
        let addr = imp.bitstream.frame_addr(fi);
        assert_eq!(
            payload.fpga(bd, f).device.config().read_frame(addr),
            *before,
            "masked frame {fi} was touched by the scrubber"
        );
    }
}

/// A design holding every kind of run-time-written state: LUT-RAM, an
/// SRL16 and a BRAM, all written while the clock runs.
fn dynamic_mix() -> cibola_netlist::Netlist {
    use cibola_netlist::Ctrl;
    let mut b = cibola_netlist::NetlistBuilder::new("dynamic-mix");
    let din = b.input();
    let q = gen::counter::counter_into(&mut b, 4);
    let wen = q[0];
    let ram = b.lut_ram(&q[..2], din, wen, 0x6A5C);
    let srl = b.srl16(&q[..2], din, Ctrl::Net(wen), 0x93A5);
    let init = (0..256u16).map(|i| i.wrapping_mul(0x9e37)).collect();
    let dout = b.bram(
        &q,
        &[Some(din), Some(srl), Some(ram)],
        Ctrl::Net(wen),
        Ctrl::One,
        init,
    );
    b.output(ram);
    b.output(srl);
    b.outputs(&dout[..4]);
    b.finish()
}

/// A full reconfiguration with the golden image rewrites only the frames
/// that differ from it, so every other frame keeps the match record a
/// scan gave it: the next scan reads back just the frame an upset hit.
#[test]
fn full_reconfiguration_keeps_the_match_records_it_can() {
    use cibola_arch::Device;

    let geom = Geometry::tiny();
    let golden = implemented(&dynamic_mix(), &geom).bitstream;
    let masked = masked_frames_for(&golden);
    let mut mgr = FaultManager::new(CrcCodebook::new(&golden, &masked));
    let n = golden.frame_count();
    let mask: Vec<bool> = (0..n).map(|f| mgr.codebook.is_masked(f)).collect();
    assert!(mask.iter().any(|&m| m), "the design masks some frames");
    let mut dev = Device::new(geom);
    dev.configure_full(&golden);
    // With the clock stopped every readback is exact, so one scan leaves
    // every unmasked frame with a record the walk passes.
    dev.set_clock_running(false);
    assert!(mgr.scan(&mut dev).corrupt.is_empty());
    let walk = |dev: &mut Device, mgr: &FaultManager, from: usize| {
        dev.skip_clean_frames(from, &mask, mgr.codebook.matched()).0
    };
    assert_eq!(walk(&mut dev, &mgr, 0), n);

    let frame = (100..n).find(|&f| !mask[f]).unwrap();
    let bit = golden.frame_base(golden.frame_addr(frame)) + 7;
    dev.flip_config_bit(bit);
    dev.configure_full(&golden);
    assert!(dev.config().diff(&golden).is_empty());
    assert_eq!(walk(&mut dev, &mgr, 0), frame);
    assert_eq!(walk(&mut dev, &mgr, frame + 1), n);

    assert!(mgr.scan(&mut dev).corrupt.is_empty());
    assert_eq!(walk(&mut dev, &mgr, 0), n);
}

/// Everything a scan can change on a device, compared between the two.
fn assert_same_device(a: &cibola_arch::Device, b: &cibola_arch::Device, what: &str) {
    let diff = a.config().diff(b.config());
    assert!(diff.is_empty(), "{what}: configuration differs at {diff:?}");
    assert_eq!(a.port_fault_stats(), b.port_fault_stats(), "{what}");
    assert_eq!(a.pending_read_faults(), b.pending_read_faults(), "{what}");
    assert_eq!(a.pending_write_faults(), b.pending_write_faults(), "{what}");
    assert_eq!(a.is_programmed(), b.is_programmed(), "{what}");
    assert_eq!(a.is_port_wedged(), b.is_port_wedged(), "{what}");
    let geom = a.geometry();
    for ti in 0..geom.num_tiles() {
        let tile = geom.tile_at(ti);
        for (slice, ff) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert_eq!(
                a.ff(tile, slice, ff),
                b.ff(tile, slice, ff),
                "{what}: flip-flop {tile:?} slice {slice} ff {ff}"
            );
        }
    }
    for col in 0..geom.bram_cols {
        for block in 0..geom.bram_blocks_per_col() {
            assert_eq!(
                a.bram_outreg(col, block),
                b.bram_outreg(col, block),
                "{what}: BRAM ({col}, {block}) output register"
            );
            assert_eq!(
                a.bram_lock_cycles(col, block),
                b.bram_lock_cycles(col, block),
                "{what}: BRAM ({col}, {block}) port lock"
            );
        }
    }
}

/// The generation scan against a cold scan. Device A keeps one manager,
/// and with it the per-frame match records, for the whole run, and keeps
/// its own caches. Device B is replaced by a clone of itself (cold
/// caches, a fresh memory identity) before every scan and every repair,
/// and scans with a fresh manager every time (the same codebook upsets
/// replayed), so it always reads every frame and derives its dynamic-LUT
/// sites afresh: a cache on A that missed a write shows as a difference.
/// The same seeded actions hit both — configuration flips (LUT mode bits
/// among them, so static LUTs turn dynamic), codebook upsets, read
/// faults, clock runs, repairs, design resets, port resets and
/// reconfigurations — with the clock running, and every scan and clock
/// run must agree exactly.
#[test]
fn generation_scan_matches_a_cold_scan() {
    use cibola_arch::bits::lut_mode_offset;
    use cibola_arch::{Device, ReadFault};

    let geom = Geometry::tiny();
    let golden = implemented(&dynamic_mix(), &geom).bitstream;
    let masked = masked_frames_for(&golden);
    let unmasked: Vec<usize> = (0..golden.frame_count())
        .filter(|fi| !masked.contains(fi))
        .collect();
    let mut warm = FaultManager::new(CrcCodebook::new(&golden, &masked));
    let mut book_upsets: Vec<(usize, usize)> = Vec::new();
    let (mut a, mut b) = (Device::new(geom.clone()), Device::new(geom.clone()));
    a.configure_full(&golden);
    b.configure_full(&golden);
    let inputs = a.num_inputs();
    let mut last_corrupt = Vec::new();
    let (mut scans, mut corrupt_seen) = (0, 0);

    let mut s = 0x05CA_1AB1_E0DD_5EED_u64;
    let mut next = move |n: usize| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % n as u64) as usize
    };
    for step in 0..600 {
        let what = format!("step {step}");
        match next(16) {
            // A configuration upset anywhere in the image.
            0 | 1 => {
                let bit = next(golden.total_bits());
                a.flip_config_bit(bit);
                b.flip_config_bit(bit);
            }
            // A LUT mode bit: a static LUT may turn dynamic, and its
            // column's readback then disturbs it.
            2 => {
                let tile = geom.tile_at(next(geom.num_tiles()));
                let off = lut_mode_offset(next(2), next(2)) + next(2);
                let bit = golden.tile_bit_index(tile, off);
                a.flip_config_bit(bit);
                b.flip_config_bit(bit);
            }
            3 => {
                let (entry, bit) = (unmasked[next(unmasked.len())], next(32));
                warm.codebook.upset(entry, bit);
                book_upsets.push((entry, bit));
            }
            4 => {
                let fault = match next(3) {
                    0 => ReadFault::Abort,
                    1 => ReadFault::Corrupt {
                        bit_flips: 1 + next(3) as u32,
                    },
                    _ => ReadFault::Wedge,
                };
                a.inject_read_fault(fault);
                b.inject_read_fault(fault);
            }
            5 | 6 => {
                for _ in 0..1 + next(6) {
                    let x: Vec<bool> = (0..inputs).map(|_| next(2) == 1).collect();
                    assert_eq!(a.step(&x), b.step(&x), "{what}: outputs");
                }
            }
            // Repair what the last scan found, or else one random frame.
            7 => {
                if last_corrupt.is_empty() {
                    last_corrupt.push(golden.frame_addr(unmasked[next(unmasked.len())]));
                }
                for addr in last_corrupt.drain(..) {
                    let frame = golden.read_frame(addr);
                    b = b.clone();
                    warm.repair(&mut a, addr, &frame);
                    warm.repair(&mut b, addr, &frame);
                }
            }
            8 => {
                a.port_reset();
                b.port_reset();
            }
            9 => match next(3) {
                0 => {
                    a.upset_config_fsm();
                    b.upset_config_fsm();
                }
                _ => {
                    a.configure_full(&golden);
                    b.configure_full(&golden);
                }
            },
            10 => {
                a.reset();
                b.reset();
            }
            _ => {
                let mut cold = FaultManager::new(CrcCodebook::new(&golden, &masked));
                for &(entry, bit) in &book_upsets {
                    cold.codebook.upset(entry, bit);
                }
                b = b.clone();
                let report = warm.scan(&mut a);
                assert_eq!(report, cold.scan(&mut b), "{what}: scan reports");
                assert_same_device(&a, &b, &what);
                scans += 1;
                corrupt_seen += report.corrupt.len();
                last_corrupt = report.corrupt.iter().map(|c| c.addr).collect();
            }
        }
    }
    assert!(
        scans > 100 && corrupt_seen > 0,
        "{scans} scans, {corrupt_seen} finds"
    );
}

/// Verify-after-write records the match it reads: after a pass that
/// repairs frame `f`, the codebook holds `f`'s current stamp whenever the
/// verify read was exact, so the next scan need not read `f` again, and
/// that scan still equals a cold scan of a clone. With the clock running,
/// a frame in a column holding a dynamic LUT reads back inexactly and
/// keeps no record.
#[test]
fn verify_after_write_records_an_exact_match() {
    use cibola_arch::Device;

    let geom = Geometry::tiny();
    for (nl, expect_inexact) in [(gen::counter_adder(4), false), (dynamic_mix(), true)] {
        let golden = implemented(&nl, &geom).bitstream;
        let masked = masked_frames_for(&golden);
        let n = golden.frame_count();
        let mut payload = Payload::new();
        payload.load_design(0, &nl.name, &geom, &golden);
        let (mut recorded, mut inexact) = (0, 0);
        let frames = (0..n).filter(|f| !masked.contains(f)).step_by(23);
        for (i, f) in frames.enumerate() {
            let what = format!("{} frame {f}", nl.name);
            let bit = golden.frame_base(golden.frame_addr(f)) + 7;
            payload.fpga_mut(0, 0).device.flip_config_bit(bit);
            let out = payload.scrub_board(0, SimTime::from_secs(i as u64), &[true]);
            assert_eq!(out.frames_repaired, 1, "{what}");
            let fpga = payload.fpga(0, 0);
            assert!(fpga.device.config().diff(&golden).is_empty(), "{what}");

            // The verify read was exact iff a read of `f` would be now.
            let exact = fpga
                .device
                .clone()
                .skip_clean_frames(f, &vec![false; n], &vec![None; n])
                .3;
            let stamp = fpga.device.config().frame_stamp(f);
            let want = exact.then_some(stamp);
            assert_eq!(fpga.manager.codebook.matched()[f], want, "{what}");
            if exact {
                recorded += 1;
            } else {
                inexact += 1;
            }

            let mut cold_dev: Device = fpga.device.clone();
            let mut cold = FaultManager::new(CrcCodebook::new(&golden, &masked));
            let fpga = payload.fpga_mut(0, 0);
            let report = fpga.manager.scan(&mut fpga.device);
            assert!(report.corrupt.is_empty(), "{what}");
            assert_eq!(report, cold.scan(&mut cold_dev), "{what}: scan reports");
            assert_same_device(&fpga.device, &cold_dev, &what);
        }
        assert!(recorded > 0, "{}: no verify was exact", nl.name);
        assert_eq!(
            inexact > 0,
            expect_inexact,
            "{}: {inexact} inexact",
            nl.name
        );
    }
}
