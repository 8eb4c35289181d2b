//! A3 — read-modify-write scrubbing (§IV-B): the RMW repair restores
//! static corruption while preserving live LUT-RAM contents in the same
//! frame; the naive golden-frame restore wipes them.

use std::collections::HashSet;
use std::fmt::Write as _;

use cibola::netlist::Ctrl;
use cibola::prelude::*;
use cibola::scrub::{dynamic_bits_for, masked_frames_for, CrcCodebook};

#[derive(Debug)]
pub struct RmwResult {
    /// Live (dynamic LUT-RAM) bit positions in the corrupted frame.
    pub live_bits: usize,
    /// RMW repair restored the corrupted static bit to golden.
    pub static_fixed: bool,
    /// RMW repair left every live bit untouched.
    pub live_preserved: bool,
    /// Each live bit after the naive golden-frame restore: all `false`
    /// when it wiped the live data back to init.
    pub naive_live: Vec<bool>,
    pub report: String,
}

/// Parameterless and tier-independent — the experiment is a single
/// deterministic frame-surgery scenario.
pub fn run() -> RmwResult {
    let geom = Geometry::tiny();
    // An SRL16 design: shifting a constant-1 stream, so its truth table is
    // live state.
    let mut b = NetlistBuilder::new("srl-rmw");
    let x = b.input();
    let one = b.const_net(true);
    let tap = b.srl16(&[one, one], x, Ctrl::One, 0);
    b.output(tap);
    let nl = b.finish();
    let imp = implement(&nl, &geom).unwrap();
    let mask = dynamic_bits_for(&imp.bitstream);

    let mut dev = Device::new(geom.clone());
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
    let live: HashSet<usize> = mask.live_offsets(fi).iter().copied().collect();
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
    let masked = masked_frames_for(&imp.bitstream);
    let mgr = FaultManager::new(CrcCodebook::new(&imp.bitstream, &masked));
    let golden = imp.bitstream.read_frame(addr);
    mgr.repair_rmw(&mut dev, fi, addr, &golden, &mask);

    let static_fixed = dev.config().get_bit(global) == imp.bitstream.get_bit(global);
    let after_live: Vec<bool> = mask
        .live_offsets(fi)
        .iter()
        .map(|&o| dev.config().get_bit(imp.bitstream.frame_base(addr) + o))
        .collect();
    let live_preserved = before_live == after_live && before_live.iter().any(|&v| v);

    // Contrast: the naive repair wipes the live data back to init (0).
    let mut naive = Device::new(geom);
    naive.configure_full(&imp.bitstream);
    for _ in 0..20 {
        naive.step(&[true]);
    }
    naive.set_clock_running(false);
    naive.partial_configure_frame(addr, &golden);
    let naive_live: Vec<bool> = mask
        .live_offsets(fi)
        .iter()
        .map(|&o| naive.config().get_bit(imp.bitstream.frame_base(addr) + o))
        .collect();
    let naive_wiped = !naive_live.is_empty() && naive_live.iter().all(|&live| !live);

    let mut report = String::new();
    let _ = writeln!(report, "# §IV-B — Read-Modify-Write Scrubbing");
    let _ = writeln!(
        report,
        "frame {fi}: {} live LUT-RAM bits, static bit {static_off} corrupted",
        before_live.len()
    );
    let _ = writeln!(
        report,
        "RMW repair: static bit {} | live data {}",
        if static_fixed {
            "restored"
        } else {
            "NOT restored"
        },
        if live_preserved {
            "preserved"
        } else {
            "CLOBBERED"
        }
    );
    let _ = writeln!(
        report,
        "naive golden restore: live data {}",
        if naive_wiped {
            "wiped to init (the §IV-B hazard)"
        } else {
            "survived (unexpected)"
        }
    );

    RmwResult {
        live_bits: before_live.len(),
        static_fixed,
        live_preserved,
        naive_live,
        report,
    }
}
