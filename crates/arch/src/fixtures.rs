//! Hand-built configurations of `Geometry::tiny()` for the unit tests of
//! the engines, the delta map and the device, plus seeded random ones.

use crate::bits::{
    encode_wire, ff_dmux_offset, input_mux_offset, lut_mode_offset, lut_table_offset,
    out_sel_offset, outmux_offset, pip_offset, LutMode, MuxPin, MUX_FLOATING, MUX_UNCONNECTED,
    MUX_UNCONNECTED_INV,
};
use crate::frames::{bram_if_addr_off, bram_if_din_off, IobEntry, BRAM_IF_EN_OFF, BRAM_IF_WE_OFF};
use crate::geometry::Dir;
use crate::{ConfigMemory, Device, Edge, Geometry, Tile};

/// One XOR LUT routed west→east, as in the proptest designs.
pub fn tiny_config() -> ConfigMemory {
    let geom = Geometry::tiny();
    let mut cm = ConfigMemory::new(geom.clone());
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
    let t0 = Tile::new(0, 0);
    cm.write_tile_field(t0, lut_table_offset(0, 0, 0), 16, 0x6996);
    cm.write_tile_field(
        t0,
        input_mux_offset(0, MuxPin::LutPin { lut: 0, pin: 0 }),
        8,
        encode_wire(Dir::West, 0) as u64,
    );
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
    cm.write_tile_field(t0, outmux_offset(Dir::East, 0), 4, 0b0001);
    for col in 1..geom.cols {
        let t = Tile::new(0, col);
        cm.write_tile_field(
            t,
            pip_offset(Dir::East as usize * 24),
            8,
            1 | ((encode_wire(Dir::West, 0) as u64) << 1),
        );
    }
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

pub fn configure(cm: &ConfigMemory) -> Device {
    let mut dev = Device::new(cm.geometry().clone());
    dev.configure_full(cm);
    dev
}

pub fn tiny_design() -> Device {
    configure(&tiny_config())
}

/// A PIP chain from tile `from` through `steps` tiles in direction
/// `dir`: each hop's outgoing wire `idx` takes the previous hop's.
pub fn route(cm: &mut ConfigMemory, from: Tile, dir: Dir, idx: usize, steps: usize) {
    let mut t = from;
    for _ in 0..steps {
        t = cm
            .geometry()
            .neighbor(t, dir)
            .expect("route stays on the device");
        cm.write_tile_field(
            t,
            pip_offset(dir as usize * 24 + idx),
            8,
            1 | ((encode_wire(dir.opposite(), idx) as u64) << 1),
        );
    }
}

/// Bind east output `port` to outgoing East wire `idx` of `row`.
pub fn east_port(cm: &mut ConfigMemory, row: usize, idx: usize, port: u8) {
    let entry = IobEntry {
        enabled: true,
        port,
        invert: false,
    };
    cm.write_iob(Edge::East, row, idx, entry);
}

/// `tiny_config` plus LUT F of tile (1, 0), slice 0, in `mode`: table
/// 0, pin 0 on input port 0, write data on the inverted port, write
/// enable on tile (0, 0)'s flip-flop, output to port 1. Input port 0
/// enters row 1 on West wires 0 (plain) and 1 (inverted).
pub fn remode_config(mode: LutMode) -> ConfigMemory {
    let mut cm = tiny_config();
    let t = Tile::new(1, 0);
    for (wire, invert) in [(0, false), (1, true)] {
        let entry = IobEntry {
            enabled: true,
            port: 0,
            invert,
        };
        cm.write_iob(Edge::West, 1, wire, entry);
    }
    cm.write_tile_field(Tile::new(0, 0), outmux_offset(Dir::South, 0), 4, 0b0001);
    cm.write_tile_field(t, lut_mode_offset(0, 0), 2, mode as u64);
    cm.write_tile_field(t, lut_table_offset(0, 0, 0), 16, 0);
    for pin in 0..4 {
        let sel = if pin == 0 {
            encode_wire(Dir::West, 0)
        } else {
            MUX_FLOATING
        };
        let off = input_mux_offset(0, MuxPin::LutPin { lut: 0, pin });
        cm.write_tile_field(t, off, 8, sel as u64);
    }
    let data = encode_wire(Dir::West, 1) as u64;
    cm.write_tile_field(t, input_mux_offset(0, MuxPin::Bx), 8, data);
    let we = encode_wire(Dir::North, 0) as u64;
    cm.write_tile_field(t, input_mux_offset(0, MuxPin::Srx), 8, we);
    cm.write_tile_field(t, outmux_offset(Dir::East, 1), 4, 0b0001);
    route(&mut cm, t, Dir::East, 1, 7);
    east_port(&mut cm, 1, 1, 1);
    cm
}

/// Home tile of the BRAM in [`out_of_cone_config`].
pub const OUT_OF_CONE_HOME: Tile = Tile { row: 0, col: 4 };

/// `tiny_config` plus a BRAM and a toggle flip-flop outside the golden
/// cone: the flip-flop's output loops back to its inverting LUT
/// through a PIP on the BRAM's home tile and addresses the BRAM, whose
/// write enable taps the golden route. One PIP bit on the output route
/// (see `out_of_cone_reroute_matches_scalar`) switches it to a BRAM
/// data-out bit.
pub fn out_of_cone_config() -> ConfigMemory {
    let mut cm = tiny_config();
    let (ff_tile, home) = (Tile::new(0, 3), OUT_OF_CONE_HOME);
    assert_eq!(cm.geometry().bram_at_home_tile(home), Some((0, 0)));
    // The FF's output loops back to its LUT through a PIP on the
    // BRAM's home tile; the LUT inverts it.
    cm.write_tile_field(ff_tile, lut_table_offset(0, 0, 0), 16, 0x5555);
    cm.write_tile_field(
        ff_tile,
        input_mux_offset(0, MuxPin::LutPin { lut: 0, pin: 0 }),
        8,
        encode_wire(Dir::East, 2) as u64,
    );
    cm.write_tile_field(
        home,
        pip_offset(Dir::West as usize * 24 + 2),
        8,
        1 | ((encode_wire(Dir::West, 1) as u64) << 1),
    );
    cm.write_tile_field(
        ff_tile,
        input_mux_offset(0, MuxPin::Cex),
        8,
        MUX_UNCONNECTED as u64,
    );
    cm.write_tile_field(
        ff_tile,
        input_mux_offset(0, MuxPin::Srx),
        8,
        MUX_UNCONNECTED_INV as u64,
    );
    cm.write_tile_field(ff_tile, out_sel_offset(0, 0), 1, 1);
    cm.write_tile_field(ff_tile, outmux_offset(Dir::East, 1), 4, 0b0001);
    for i in 0..8 {
        let sel = if i == 0 {
            encode_wire(Dir::West, 1)
        } else {
            MUX_FLOATING
        };
        cm.write_bram_if_field(0, 0, bram_if_addr_off(i), 8, sel as u64);
    }
    for i in 0..16 {
        let sel = if i == 8 {
            MUX_UNCONNECTED
        } else {
            MUX_FLOATING
        };
        cm.write_bram_if_field(0, 0, bram_if_din_off(i), 8, sel as u64);
    }
    let we = encode_wire(Dir::West, 0);
    cm.write_bram_if_field(0, 0, BRAM_IF_WE_OFF, 8, we as u64);
    cm.write_bram_if_field(0, 0, BRAM_IF_EN_OFF, 8, MUX_UNCONNECTED as u64);
    cm
}

/// Two BRAM blocks, a RAM-mode LUT and a flip-flop on one BRAM's
/// output register: see `bram_output_reaches_later_ports_the_same_cycle`.
pub fn bram_chain_config() -> ConfigMemory {
    let mut cm = tiny_config();
    let (a_home, b_home, ram) = (Tile::new(0, 4), Tile::new(4, 4), Tile::new(0, 5));
    assert_eq!(cm.geometry().bram_at_home_tile(a_home), Some((0, 0)));
    assert_eq!(cm.geometry().bram_at_home_tile(b_home), Some((0, 1)));
    let bram_out = |bit: u64| 1 | ((96 + bit) << 1);

    // Input port 0 along row 0 to A's address pin 0.
    cm.write_tile_field(
        Tile::new(0, 0),
        pip_offset(Dir::East as usize * 24 + 5),
        8,
        1 | ((encode_wire(Dir::West, 0) as u64) << 1),
    );
    route(&mut cm, Tile::new(0, 0), Dir::East, 5, 4);
    // A: word 0 = bit 0, word 1 = bit 3, always enabled, read-only.
    // B: word 1 = all ones.
    cm.write_bram_word(0, 0, 0, 0b0001);
    cm.write_bram_word(0, 0, 1, 0b1000);
    cm.write_bram_word(0, 1, 1, 0xFFFF);
    for block in 0..2 {
        for i in 0..8 {
            cm.write_bram_if_field(0, block, bram_if_addr_off(i), 8, MUX_FLOATING as u64);
        }
        for i in 0..16 {
            cm.write_bram_if_field(0, block, bram_if_din_off(i), 8, MUX_FLOATING as u64);
        }
        cm.write_bram_if_field(0, block, BRAM_IF_WE_OFF, 8, MUX_FLOATING as u64);
        let en = MUX_UNCONNECTED as u64;
        cm.write_bram_if_field(0, block, BRAM_IF_EN_OFF, 8, en);
    }
    let a_addr0 = encode_wire(Dir::West, 5) as u64;
    cm.write_bram_if_field(0, 0, bram_if_addr_off(0), 8, a_addr0);

    // A's bit 0 out to port 2: compiled before B, so A's port runs
    // first.
    cm.write_tile_field(
        a_home,
        pip_offset(Dir::East as usize * 24 + 2),
        8,
        bram_out(0),
    );
    route(&mut cm, a_home, Dir::East, 2, 3);
    east_port(&mut cm, 0, 2, 2);
    // A's bit 3 south to B's address pin 0, and east to the slice.
    cm.write_tile_field(
        a_home,
        pip_offset(Dir::South as usize * 24 + 7),
        8,
        bram_out(3),
    );
    route(&mut cm, a_home, Dir::South, 7, 3);
    let b_addr0 = encode_wire(Dir::North, 7) as u64;
    cm.write_bram_if_field(0, 1, bram_if_addr_off(0), 8, b_addr0);
    cm.write_tile_field(
        a_home,
        pip_offset(Dir::East as usize * 24 + 6),
        8,
        bram_out(3),
    );
    // B's bit 2 out to port 3.
    cm.write_tile_field(
        b_home,
        pip_offset(Dir::East as usize * 24 + 3),
        8,
        bram_out(2),
    );
    route(&mut cm, b_home, Dir::East, 3, 3);
    east_port(&mut cm, 4, 3, 3);

    // LUT F of the slice: RAM mode, table 0, write-enabled by A's bit
    // 3, data from input port 0; its output to port 1.
    cm.write_tile_field(ram, lut_mode_offset(0, 0), 2, 2);
    cm.write_tile_field(ram, lut_table_offset(0, 0, 0), 16, 0);
    for pin in 0..4 {
        let off = input_mux_offset(0, MuxPin::LutPin { lut: 0, pin });
        cm.write_tile_field(ram, off, 8, MUX_FLOATING as u64);
    }
    let a_bit3 = encode_wire(Dir::West, 6) as u64;
    cm.write_tile_field(ram, input_mux_offset(0, MuxPin::Srx), 8, a_bit3);
    let input = encode_wire(Dir::West, 5) as u64;
    route(&mut cm, a_home, Dir::East, 5, 1);
    cm.write_tile_field(ram, input_mux_offset(0, MuxPin::Bx), 8, input);
    cm.write_tile_field(ram, outmux_offset(Dir::East, 1), 4, 0b0001);
    route(&mut cm, ram, Dir::East, 1, 2);
    east_port(&mut cm, 0, 1, 1);
    // Flip-flop Y of the slice: D = A's bit 3, always enabled; its
    // output to port 4.
    cm.write_tile_field(ram, ff_dmux_offset(0, 1), 1, 1);
    cm.write_tile_field(ram, input_mux_offset(0, MuxPin::By), 8, a_bit3);
    let cey = MUX_UNCONNECTED as u64;
    cm.write_tile_field(ram, input_mux_offset(0, MuxPin::Cey), 8, cey);
    let sry = MUX_UNCONNECTED_INV as u64;
    cm.write_tile_field(ram, input_mux_offset(0, MuxPin::Sry), 8, sry);
    cm.write_tile_field(ram, out_sel_offset(0, 1), 1, 1);
    cm.write_tile_field(ram, outmux_offset(Dir::East, 4), 4, 0b0011);
    route(&mut cm, ram, Dir::East, 4, 2);
    east_port(&mut cm, 0, 4, 4);
    cm
}

/// The tile of [`diagnostics_loop_config`]'s loop.
pub const DIAGNOSTICS_LOOP_TILE: Tile = Tile { row: 2, col: 1 };

/// `tiny_config` plus, in tile (2, 1), LUT F inverting LUT G and feeding
/// only its slice's flip-flop, which no output observes. One bit of LUT
/// G's pin-0 select (East 4 → East 5) makes it read LUT F back through a
/// U-turn on tile (2, 2): see
/// `diagnostics_loop_on_unobserved_flip_flop_is_structural`.
pub fn diagnostics_loop_config() -> ConfigMemory {
    let mut cm = tiny_config();
    let (t, n) = (DIAGNOSTICS_LOOP_TILE, Tile::new(2, 2));
    cm.write_tile_field(t, lut_table_offset(0, 0, 0), 16, 0x5555);
    cm.write_tile_field(t, lut_table_offset(0, 1, 0), 16, 0xAAAA);
    let f_pin0 = input_mux_offset(0, MuxPin::LutPin { lut: 0, pin: 0 });
    cm.write_tile_field(t, f_pin0, 8, encode_wire(Dir::East, 3) as u64);
    let g_pin0 = input_mux_offset(0, MuxPin::LutPin { lut: 1, pin: 0 });
    cm.write_tile_field(t, g_pin0, 8, encode_wire(Dir::East, 4) as u64);
    for pin in 1..4 {
        for lut in 0..2 {
            let off = input_mux_offset(0, MuxPin::LutPin { lut, pin });
            cm.write_tile_field(t, off, 8, MUX_FLOATING as u64);
        }
    }
    // G out on East 1, F on East 2; tile (2, 2) turns them back on
    // West 3 and West 5.
    cm.write_tile_field(t, outmux_offset(Dir::East, 1), 4, 0b0011);
    cm.write_tile_field(t, outmux_offset(Dir::East, 2), 4, 0b0001);
    for (out, back) in [(3, 1), (5, 2)] {
        let pip = 1 | ((encode_wire(Dir::West, back) as u64) << 1);
        cm.write_tile_field(n, pip_offset(Dir::West as usize * 24 + out), 8, pip);
    }
    cm
}

/// `tiny_config` plus an OR latch that holds its state in a combinational
/// cycle: in tile (3, 0), LUT F is input port 1 OR LUT G, and LUT G
/// buffers LUT F back through a U-turn on tile (3, 1). F drives output
/// port 1. Once port 1 reads 1 the loop holds 1, but only in the LUT
/// values the scalar engine carries from cycle to cycle: a fresh compile
/// starts the loop at 0.
pub fn latch_config() -> ConfigMemory {
    let mut cm = tiny_config();
    let (t, n) = (Tile::new(3, 0), Tile::new(3, 1));
    cm.write_iob(
        Edge::West,
        3,
        0,
        IobEntry {
            enabled: true,
            port: 1,
            invert: false,
        },
    );
    cm.write_tile_field(t, lut_table_offset(0, 0, 0), 16, 0xEEEE);
    cm.write_tile_field(t, lut_table_offset(0, 1, 0), 16, 0xAAAA);
    let sources = [
        (0, 0, encode_wire(Dir::West, 0)),
        (0, 1, encode_wire(Dir::East, 5)),
        (1, 0, encode_wire(Dir::East, 3)),
    ];
    for lut in 0..2 {
        for pin in 0..4 {
            let sel = sources
                .iter()
                .find(|&&(l, p, _)| (l, p) == (lut, pin))
                .map_or(MUX_FLOATING, |&(_, _, sel)| sel);
            let off = input_mux_offset(0, MuxPin::LutPin { lut, pin });
            cm.write_tile_field(t, off, 8, sel as u64);
        }
    }
    // F out on East 1, G on East 2; tile (3, 1) turns them back on West 3
    // and West 5, and carries F on east to port 1.
    cm.write_tile_field(t, outmux_offset(Dir::East, 1), 4, 0b0001);
    cm.write_tile_field(t, outmux_offset(Dir::East, 2), 4, 0b0011);
    for (out, back) in [(3, 1), (5, 2)] {
        let pip = 1 | ((encode_wire(Dir::West, back) as u64) << 1);
        cm.write_tile_field(n, pip_offset(Dir::West as usize * 24 + out), 8, pip);
    }
    route(&mut cm, t, Dir::East, 1, 7);
    east_port(&mut cm, 3, 1, 1);
    cm
}

/// A seeded random configuration of `Geometry::tiny()`: random LUTs
/// (tables, modes, pins), flip-flops, output multiplexers, PIPs, BRAM
/// interface selects and port bindings, over the first few wires of each
/// direction so that they meet. About a third of them have a cyclic
/// network.
pub fn random_config(seed: u64) -> ConfigMemory {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const WIRES: usize = 6;
    let geom = Geometry::tiny();
    let mut cm = ConfigMemory::new(geom.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    let wire = |rng: &mut SmallRng| {
        let dir = Dir::from_index(rng.gen_range(0..4usize));
        encode_wire(dir, rng.gen_range(0..WIRES)) as u64
    };
    let select = |rng: &mut SmallRng| match rng.gen_range(0..8u8) {
        0..=3 => wire(rng),
        4 | 5 => MUX_FLOATING as u64,
        6 => MUX_UNCONNECTED as u64,
        _ => MUX_UNCONNECTED_INV as u64,
    };
    let entry = |rng: &mut SmallRng, ports: u8| IobEntry {
        enabled: true,
        port: rng.gen_range(0..ports),
        invert: rng.gen_bool(0.2),
    };
    for row in 0..geom.rows {
        for w in 0..WIRES {
            if rng.gen_bool(0.3) {
                let e = entry(&mut rng, 3);
                cm.write_iob(Edge::West, row, w, e);
            }
            if rng.gen_bool(0.3) {
                let e = entry(&mut rng, 4);
                cm.write_iob(Edge::East, row, w, e);
            }
        }
    }
    for row in 0..geom.rows {
        for col in 0..geom.cols {
            let t = Tile::new(row, col);
            for slice in 0..2 {
                for lut in 0..2u8 {
                    if !rng.gen_bool(0.8) {
                        continue;
                    }
                    let (s, l) = (slice, lut as usize);
                    let table = rng.gen_range(0..=u16::MAX) as u64;
                    cm.write_tile_field(t, lut_table_offset(s, l, 0), 16, table);
                    let mode = match rng.gen_range(0..10u8) {
                        0 => LutMode::Rom,
                        1 => LutMode::Ram,
                        2 => LutMode::Shift,
                        _ => LutMode::Logic,
                    };
                    cm.write_tile_field(t, lut_mode_offset(s, l), 2, mode as u64);
                    for pin in 0..4 {
                        let off = input_mux_offset(s, MuxPin::LutPin { lut, pin });
                        let sel = select(&mut rng);
                        cm.write_tile_field(t, off, 8, sel);
                    }
                    let aux = [
                        [MuxPin::Bx, MuxPin::Cex, MuxPin::Srx],
                        [MuxPin::By, MuxPin::Cey, MuxPin::Sry],
                    ];
                    for pin in aux[l] {
                        let sel = select(&mut rng);
                        cm.write_tile_field(t, input_mux_offset(s, pin), 8, sel);
                    }
                    let ff = rng.gen_range(0..8u64);
                    cm.write_tile_field(t, ff_dmux_offset(s, l), 1, ff & 1);
                    cm.write_tile_field(t, out_sel_offset(s, l), 1, ff >> 1 & 1);
                    cm.write_tile_field(t, crate::bits::ff_init_offset(s, l), 1, ff >> 2);
                }
            }
            for dir in Dir::ALL {
                for w in 0..WIRES {
                    if rng.gen_bool(0.4) {
                        let sel = rng.gen_range(0..4u64);
                        cm.write_tile_field(t, outmux_offset(dir, w), 4, 1 | sel << 1);
                    } else if rng.gen_bool(0.5) {
                        let src = match geom.bram_at_home_tile(t) {
                            Some(_) if rng.gen_bool(0.3) => 96 + rng.gen_range(0..16u64),
                            _ => wire(&mut rng),
                        };
                        let flat = dir as usize * 24 + w;
                        cm.write_tile_field(t, pip_offset(flat), 8, 1 | src << 1);
                    }
                }
            }
        }
    }
    for block in 0..geom.bram_blocks_per_col() {
        for col in 0..geom.num_bram_blocks() / geom.bram_blocks_per_col() {
            let offs = (0..8).map(bram_if_addr_off);
            let offs = offs.chain((0..16).map(bram_if_din_off));
            for off in offs.chain([BRAM_IF_WE_OFF, BRAM_IF_EN_OFF]) {
                let sel = select(&mut rng);
                cm.write_bram_if_field(col, block, off, 8, sel);
            }
            for addr in 0..4 {
                let w = rng.gen_range(0..=u16::MAX);
                cm.write_bram_word(col, block, addr, w);
            }
        }
    }
    cm
}

/// The designs the indexed walks are checked on against their
/// root-by-root oracles, each with a name: every hand-built design above
/// whose golden network is acyclic (the diagnostics loop in diagnostics
/// mode, as its test runs it), then the first `random` seeds of
/// [`random_config`] whose golden network is acyclic and has an output.
pub fn acyclic_designs(random: usize) -> Vec<(String, Device)> {
    let mut designs = vec![
        ("tiny".to_string(), configure(&tiny_config())),
        ("out-of-cone".to_string(), configure(&out_of_cone_config())),
        ("bram-chain".to_string(), configure(&bram_chain_config())),
    ];
    for mode in [LutMode::Logic, LutMode::Rom, LutMode::Ram, LutMode::Shift] {
        designs.push((format!("remode {mode:?}"), configure(&remode_config(mode))));
    }
    let mut diagnostics = configure(&diagnostics_loop_config());
    diagnostics.set_compile_all_state(true);
    designs.push(("diagnostics loop".to_string(), diagnostics));
    let mut seeds = 0..;
    while designs.len() < 8 + random {
        let seed = seeds.next().expect("unbounded");
        let mut dev = configure(&random_config(seed));
        let stats = dev.network_stats();
        if !stats.has_comb_cycles && dev.num_outputs() > 0 && stats.luts > 0 {
            designs.push((format!("random seed {seed}"), dev));
        }
    }
    designs
}
