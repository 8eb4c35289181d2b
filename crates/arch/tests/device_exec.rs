//! End-to-end device tests: hand-built configurations exercised through the
//! SelectMAP port and the execution engine.

use cibola_arch::bits::{
    self, encode_wire, ff_dmux_offset, input_mux_offset, lut_table_offset, out_sel_offset,
    outmux_offset, pip_offset, MuxPin, MUX_FLOATING, MUX_UNCONNECTED, MUX_UNCONNECTED_INV,
};
use cibola_arch::frames::IobEntry;
use cibola_arch::{
    ConfigMemory, Device, Dir, Edge, FaultSite, Geometry, HlSite, ReadbackOptions, Tile,
};

/// Truth table for a function of pin 0 only, replicated across the unused
/// input space so the value is independent of pins 1–3.
fn table_of_pin0(f0: bool, f1: bool) -> u64 {
    let mut t = 0u64;
    for a in 0..16 {
        let v = if a & 1 == 0 { f0 } else { f1 };
        if v {
            t |= 1 << a;
        }
    }
    t
}

/// Build a configuration with a 1-bit path: input port 0 → LUT at (0,0)
/// (buffer or inverter) → optional FF → east across row 0 → output port 0.
fn path_config(geom: &Geometry, invert: bool, registered: bool) -> ConfigMemory {
    let mut cm = ConfigMemory::new(geom.clone());
    let t0 = Tile::new(0, 0);

    // Input port 0 drives west-edge incoming wire 0 of row 0.
    cm.write_iob(
        Edge::West,
        0,
        0,
        IobEntry {
            enabled: true,
            port: 0,
            invert: false,
        },
    );

    // LUT F of slice 0 at (0,0): pin 0 from the west wire, rest floating.
    cm.write_tile_field(
        t0,
        lut_table_offset(0, 0, 0),
        16,
        table_of_pin0(invert, !invert),
    );
    cm.write_tile_field(
        t0,
        input_mux_offset(0, MuxPin::LutPin { lut: 0, pin: 0 }),
        8,
        encode_wire(Dir::West, 0) as u64,
    );
    for p in 1..4 {
        cm.write_tile_field(
            t0,
            input_mux_offset(0, MuxPin::LutPin { lut: 0, pin: p }),
            8,
            MUX_FLOATING as u64,
        );
    }

    if registered {
        // FFX: D from LUT, CE kept by a half-latch (constant 1), SR kept by
        // an inverted half-latch (constant 0) — the CAD-tool default the
        // paper's Fig. 14 describes.
        cm.write_tile_field(t0, ff_dmux_offset(0, 0), 1, 0);
        cm.write_tile_field(
            t0,
            input_mux_offset(0, MuxPin::Cex),
            8,
            MUX_UNCONNECTED as u64,
        );
        cm.write_tile_field(
            t0,
            input_mux_offset(0, MuxPin::Srx),
            8,
            MUX_UNCONNECTED_INV as u64,
        );
        cm.write_tile_field(t0, out_sel_offset(0, 0), 1, 1);
    } else {
        cm.write_tile_field(t0, out_sel_offset(0, 0), 1, 0);
    }

    // Drive outgoing east wire 0 of (0,0) from slice 0 output X (sel = 0).
    cm.write_tile_field(t0, outmux_offset(Dir::East, 0), 4, 0b0001);

    // Pass through every other column: outgoing east wire 0 ← incoming
    // west wire 0.
    for col in 1..geom.cols {
        let t = Tile::new(0, col);
        let pip = 1u64 | ((encode_wire(Dir::West, 0) as u64) << 1);
        cm.write_tile_field(t, pip_offset(Dir::East as usize * 24), 8, pip);
    }

    // Output port 0 samples outgoing east wire 0 of the last column.
    cm.write_iob(
        Edge::East,
        0,
        0,
        IobEntry {
            enabled: true,
            port: 0,
            invert: false,
        },
    );
    cm
}

#[test]
fn combinational_path_executes() {
    let geom = Geometry::tiny();
    let mut dev = Device::new(geom.clone());
    let bs = path_config(&geom, true, false);
    let dur = dev.configure_full(&bs);
    assert!(dur.as_nanos() > 0);
    assert!(dev.is_programmed());
    assert_eq!(dev.num_inputs(), 1);
    assert_eq!(dev.num_outputs(), 1);

    assert_eq!(dev.step(&[false]), vec![true], "inverter of 0 is 1");
    assert_eq!(dev.step(&[true]), vec![false]);
    let stats = dev.network_stats();
    assert_eq!(stats.luts, 1);
    assert_eq!(stats.ffs, 0);
    assert!(!stats.has_comb_cycles);
}

#[test]
fn registered_path_lags_one_cycle() {
    let geom = Geometry::tiny();
    let mut dev = Device::new(geom.clone());
    dev.configure_full(&path_config(&geom, false, true));
    // Cycle 1: FF still holds init (0); D captures input.
    assert_eq!(dev.step(&[true]), vec![false]);
    // Cycle 2: FF now shows last cycle's input.
    assert_eq!(dev.step(&[false]), vec![true]);
    assert_eq!(dev.step(&[false]), vec![false]);
    let stats = dev.network_stats();
    assert_eq!(stats.ffs, 1);
    assert_eq!(
        stats.half_latch_sites, 2,
        "CE and SR are half-latch-kept constants"
    );
}

#[test]
fn half_latch_upset_freezes_ff_and_partial_config_cannot_fix_it() {
    // Paper Fig. 14: a proton inverts the CE half-latch, disabling the
    // flip-flop; readback sees nothing, partial reconfiguration does not
    // help, only full reconfiguration recovers.
    let geom = Geometry::tiny();
    let mut dev = Device::new(geom.clone());
    let bs = path_config(&geom, false, true);
    dev.configure_full(&bs);
    dev.step(&[true]);
    assert_eq!(dev.step(&[true]), vec![true]);

    let ce_site = HlSite::Slice {
        tile: Tile::new(0, 0),
        slice: 0,
        pin: MuxPin::Cex.index() as u8,
    };
    dev.upset_half_latch(ce_site);
    // The FF is frozen at 1 no matter the input.
    assert_eq!(dev.step(&[false]), vec![true]);
    assert_eq!(dev.step(&[false]), vec![true], "CE is dead, FF holds");

    // The configuration bitstream is untouched: readback-compare finds no
    // difference.
    assert!(dev.config().diff(&bs).is_empty());

    // Partial reconfiguration of every frame does not execute the start-up
    // sequence, so the half-latch stays upset.
    let addrs: Vec<_> = bs.frame_addrs().collect();
    for addr in addrs {
        let golden = bs.read_frame(addr);
        dev.partial_configure_frame(addr, &golden);
    }
    assert_eq!(dev.step(&[false]), vec![true], "still frozen after scrub");

    // Full reconfiguration restores the half-latch.
    dev.configure_full(&bs);
    dev.step(&[false]);
    assert_eq!(dev.step(&[true]), vec![false]);
    assert_eq!(dev.step(&[true]), vec![true], "FF follows input again");
}

#[test]
fn config_bit_flip_changes_behaviour_and_repair_restores_it() {
    let geom = Geometry::tiny();
    let mut dev = Device::new(geom.clone());
    let bs = path_config(&geom, true, false);
    dev.configure_full(&bs);
    assert_eq!(dev.step(&[false]), vec![true]);

    // Flip the LUT truth-table bit for address 0: the inverter now outputs
    // 0 for input 0.
    let global = dev
        .config()
        .tile_bit_index(Tile::new(0, 0), lut_table_offset(0, 0, 0));
    dev.flip_config_bit(global);
    assert_eq!(dev.step(&[false]), vec![false], "corrupted LUT");

    // Repair by rewriting the containing frame with golden data, as the
    // paper's scrubber does.
    let (addr, _) = dev.config().locate(global);
    let golden = bs.read_frame(addr);
    dev.partial_configure_frame(addr, &golden);
    assert_eq!(dev.step(&[false]), vec![true], "repaired");
    assert!(dev.config().diff(&bs).is_empty());
}

#[test]
fn routing_bit_flip_breaks_the_path() {
    let geom = Geometry::tiny();
    let mut dev = Device::new(geom.clone());
    let bs = path_config(&geom, true, false);
    dev.configure_full(&bs);
    assert_eq!(dev.step(&[false]), vec![true]);

    // Disable the PIP in column 3: the wire floats, reads 0.
    let t = Tile::new(0, 3);
    let global = dev
        .config()
        .tile_bit_index(t, pip_offset(Dir::East as usize * 24));
    dev.flip_config_bit(global);
    assert_eq!(dev.step(&[false]), vec![false], "broken route reads 0");
    dev.flip_config_bit(global);
    assert_eq!(dev.step(&[false]), vec![true]);
}

#[test]
fn unprogrammed_device_is_inert_and_reads_garbage() {
    let geom = Geometry::tiny();
    let mut dev = Device::new(geom.clone());
    let bs = path_config(&geom, true, false);
    dev.configure_full(&bs);
    assert_eq!(dev.step(&[false]), vec![true]);

    dev.upset_config_fsm();
    assert!(!dev.is_programmed());
    assert_eq!(dev.step(&[false]), vec![false], "outputs dead");

    // Readback no longer matches the golden image (the scrubber will see
    // CRC mismatches everywhere and escalate to full reconfiguration).
    let addr = bs.frame_addrs().next().unwrap();
    let (data, _) = dev.readback_frame(addr, ReadbackOptions::default());
    assert_ne!(data, bs.read_frame(addr));

    dev.configure_full(&bs);
    assert_eq!(dev.step(&[false]), vec![true]);
}

#[test]
fn stuck_at_fault_survives_reconfiguration() {
    let geom = Geometry::tiny();
    let mut dev = Device::new(geom.clone());
    let bs = path_config(&geom, true, false);
    dev.configure_full(&bs);
    assert_eq!(dev.step(&[false]), vec![true]);

    // Stuck-at-0 on the outgoing east wire 0 of column 2.
    dev.inject_stuck_fault(
        FaultSite::Wire {
            tile: Tile::new(0, 2),
            wire: Dir::East as usize as u8 * 24,
        },
        false,
    );
    assert_eq!(dev.step(&[false]), vec![false]);

    dev.configure_full(&bs);
    assert_eq!(
        dev.step(&[false]),
        vec![false],
        "permanent fault survives full reconfiguration"
    );

    dev.remove_stuck_fault(FaultSite::Wire {
        tile: Tile::new(0, 2),
        wire: Dir::East as usize as u8 * 24,
    });
    assert_eq!(dev.step(&[false]), vec![true]);
}

#[test]
fn readback_matches_configuration_and_capture_shows_ff_state() {
    let geom = Geometry::tiny();
    let mut dev = Device::new(geom.clone());
    let bs = path_config(&geom, false, true);
    dev.configure_full(&bs);

    // Plain readback returns configured bits (FF init positions included).
    for addr in bs.frame_addrs().collect::<Vec<_>>() {
        let (data, _) = dev.readback_frame(addr, ReadbackOptions::default());
        assert_eq!(data, bs.read_frame(addr), "frame {addr:?}");
    }

    // Clock in a 1 and capture: the FF-init bit position of (0,0) FFX now
    // reads 1 even though the configured init is 0.
    dev.step(&[true]);
    dev.step(&[true]);
    assert!(dev.ff(Tile::new(0, 0), 0, 0));
    let init_off = bits::ff_init_offset(0, 0);
    let (addr, frame_off) = {
        let global = dev.config().tile_bit_index(Tile::new(0, 0), init_off);
        dev.config().locate(global)
    };
    let (cap, _) = dev.readback_frame(addr, ReadbackOptions { capture_ff: true });
    assert_eq!(
        (cap[frame_off / 8] >> (frame_off % 8)) & 1,
        1,
        "captured FF value visible in readback"
    );
    let (plain, _) = dev.readback_frame(addr, ReadbackOptions::default());
    assert_eq!(
        (plain[frame_off / 8] >> (frame_off % 8)) & 1,
        0,
        "plain readback shows configured init"
    );
}

#[test]
fn full_device_readback_cost_is_linear_in_frames() {
    let geom = Geometry::tiny();
    let mut dev = Device::new(geom.clone());
    dev.configure_full(&ConfigMemory::new(geom.clone()));
    let (frames, dur) = dev.readback_all(ReadbackOptions::default());
    assert_eq!(frames.len(), dev.config().frame_count());
    // Lower bound: pure byte movement.
    let bytes: usize = frames.iter().map(|(_, d)| d.len()).sum();
    assert!(dur.as_nanos() >= bytes as u64 * dev.port_timing.ns_per_byte);
}

#[test]
fn reset_loads_every_flip_flop_init_bit() {
    for geom in [Geometry::tiny(), Geometry::tiny().with_virtex2_layout()] {
        let mut dev = Device::new(geom.clone());
        dev.configure_full(&ConfigMemory::new(geom.clone()));
        let mut s = 0x1417_BEEF_u64;
        let mut next = move |n: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n as u64) as usize
        };
        let sites: Vec<(Tile, usize, usize)> = (0..geom.num_tiles())
            .flat_map(|ti| (0..4).map(move |k| (ti, k / 2, k % 2)))
            .map(|(ti, slice, ff)| (geom.tile_at(ti), slice, ff))
            .collect();
        for round in 0..8 {
            // Flip a random set of init bits, and scramble the flip-flops
            // so the reset has to write both values.
            for _ in 0..sites.len() / 2 {
                let (tile, slice, ff) = sites[next(sites.len())];
                let bit = dev
                    .config()
                    .tile_bit_index(tile, bits::ff_init_offset(slice, ff));
                dev.flip_config_bit(bit);
            }
            for &(tile, slice, ff) in &sites {
                dev.set_ff(tile, slice, ff, next(2) == 1);
            }
            dev.reset();
            for &(tile, slice, ff) in &sites {
                let init = dev
                    .config()
                    .read_tile_field(tile, bits::ff_init_offset(slice, ff), 1);
                assert_eq!(
                    dev.ff(tile, slice, ff),
                    init == 1,
                    "{} round {round}: {tile:?} slice {slice} ff {ff}",
                    geom.name
                );
            }
        }
    }
}
