//! Quickstart: build a design, fly an SEU into it, watch the scrubber fix
//! it — the paper's Fig. 4 loop in thirty lines.
//!
//! Run with: `cargo run --release -p cibola --example quickstart`

use cibola::prelude::*;
use cibola::scrub::{masked_frames_for, CrcCodebook};

fn main() {
    // A small Virtex-class device and one of the paper's designs.
    let geom = Geometry::tiny();
    let nl = cibola::designs::PaperDesign::CounterAdder { width: 6 }.netlist();
    let imp = implement(&nl, &geom).unwrap();
    println!("implemented: {}", imp.report);

    // Configure the device and run a few cycles.
    let mut dev = Device::new(geom.clone());
    let cfg_time = dev.configure_full(&imp.bitstream);
    println!("full configuration took {cfg_time} (simulated)");
    for _ in 0..10 {
        dev.step(&[false; 8]);
    }

    // The fault manager continuously CRC-scans every frame.
    let masked = masked_frames_for(&imp.bitstream);
    let mut manager = FaultManager::new(CrcCodebook::new(&imp.bitstream, &masked));
    let clean = manager.scan(&mut dev);
    println!(
        "clean scan: {} frames in {} — no mismatch",
        clean.frames_scanned, clean.duration
    );

    // A single-event upset strikes a configuration bit.
    let victim = dev.active_config_bits()[42];
    dev.flip_config_bit(victim);
    let (addr, _) = imp.bitstream.locate(victim);
    println!("SEU: flipped configuration bit {victim} (frame {addr:?})");

    // Detection: the next scan names the corrupted frame.
    let report = manager.scan(&mut dev);
    assert_eq!(report.corrupt.len(), 1);
    println!(
        "scrubber found frame {:?} corrupt after {}",
        report.corrupt[0].addr, report.duration
    );

    // Correction: partial reconfiguration with the golden frame, then a
    // reset — the design never stopped running.
    let golden = imp.bitstream.read_frame(report.corrupt[0].addr);
    let repair_time = manager.repair(&mut dev, report.corrupt[0].addr, &golden);
    println!("repaired by partial reconfiguration in {repair_time}");
    assert!(dev.config().diff(&imp.bitstream).is_empty());
    assert!(manager.scan(&mut dev).corrupt.is_empty());
    println!("device image verified golden again — service never interrupted");
}
