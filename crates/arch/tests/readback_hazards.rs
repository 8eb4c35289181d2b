//! The §II-C / §IV readback hazards: LUT-RAM corruption under concurrent
//! readback, BRAM output-register corruption and port lockout, and the
//! read-modify-write problem with scrubbing dynamic frames.

use cibola_arch::bits::{
    encode_wire, input_mux_offset, lut_mode_offset, lut_table_offset, out_sel_offset,
    outmux_offset, pip_offset, LutMode, MuxPin, FRAMES_PER_CLB_COL, MUX_UNCONNECTED,
    TILE_BITS_PER_FRAME,
};
use cibola_arch::frames::{BlockType, IobEntry, BRAM_CONTENT_SUBFRAMES};
use cibola_arch::{
    ConfigMemory, Device, Dir, Edge, FrameAddr, FrameStamp, Geometry, ReadFault, ReadbackOptions,
    Tile,
};

/// An SRL16 at (0,0) shifting a constant-1 stream, output to port 0.
fn srl_config(geom: &Geometry) -> ConfigMemory {
    let mut cm = ConfigMemory::new(geom.clone());
    let t = Tile::new(0, 0);
    cm.write_tile_field(t, lut_mode_offset(0, 0), 2, LutMode::Shift as u64);
    cm.write_tile_field(t, lut_table_offset(0, 0, 0), 16, 0);
    // Address pins and write data kept by half-latches (addr = 15, data = 1).
    for p in 0..4 {
        cm.write_tile_field(
            t,
            input_mux_offset(0, MuxPin::LutPin { lut: 0, pin: p }),
            8,
            MUX_UNCONNECTED as u64,
        );
    }
    cm.write_tile_field(
        t,
        input_mux_offset(0, MuxPin::Bx),
        8,
        MUX_UNCONNECTED as u64,
    );
    cm.write_tile_field(
        t,
        input_mux_offset(0, MuxPin::Srx),
        8,
        MUX_UNCONNECTED as u64,
    );
    cm.write_tile_field(t, out_sel_offset(0, 0), 1, 0);
    // Route across row 0 to the east edge.
    cm.write_tile_field(t, outmux_offset(Dir::East, 0), 4, 0b0001);
    for col in 1..geom.cols {
        let tc = Tile::new(0, col);
        let pip = 1u64 | ((encode_wire(Dir::West, 0) as u64) << 1);
        cm.write_tile_field(tc, pip_offset(Dir::East as usize * 24), 8, pip);
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

#[test]
fn lut_ram_readback_during_operation_corrupts_contents() {
    let geom = Geometry::tiny();
    let mut dev = Device::new(geom.clone());
    let bs = srl_config(&geom);
    dev.configure_full(&bs);

    // Run: the SRL fills with ones.
    for _ in 0..20 {
        dev.step(&[]);
    }
    assert!(dev.design_wrote_config());
    let table_before = dev
        .config()
        .read_tile_field(Tile::new(0, 0), lut_table_offset(0, 0, 0), 16);
    assert_eq!(table_before, 0xffff, "SRL filled with ones");

    // Reading back a frame that holds (dynamic) truth-table bits while
    // the clock runs corrupts it — the §II-C hazard. Under the Virtex
    // interleaving every one of the first 16 frames carries table bits.
    let minor = dev.config().tile_pos(lut_table_offset(0, 0, 0)) / TILE_BITS_PER_FRAME;
    let addr = FrameAddr::clb(0, minor);
    dev.set_clock_running(true);
    let _ = dev.readback_frame(addr, ReadbackOptions::default());
    let table_after = dev
        .config()
        .read_tile_field(Tile::new(0, 0), lut_table_offset(0, 0, 0), 16);
    assert_ne!(table_after, table_before, "hazard must corrupt the LUT-RAM");

    // With the clock stopped (the paper's workaround), readback is safe.
    dev.configure_full(&bs);
    for _ in 0..20 {
        dev.step(&[]);
    }
    dev.set_clock_running(false);
    let before = dev
        .config()
        .read_tile_field(Tile::new(0, 0), lut_table_offset(0, 0, 0), 16);
    let _ = dev.readback_frame(addr, ReadbackOptions::default());
    let after = dev
        .config()
        .read_tile_field(Tile::new(0, 0), lut_table_offset(0, 0, 0), 16);
    assert_eq!(before, after, "stopped clock avoids the hazard");
}

#[test]
fn bram_content_readback_corrupts_output_register_and_locks_port() {
    let geom = Geometry::tiny();
    let mut dev = Device::new(geom.clone());
    let blank = ConfigMemory::new(geom.clone());
    dev.configure_full(&blank);

    // Give block (0,0) a known output register value via direct content +
    // engine access is complex here; drive the register through the
    // public readback hazard path instead.
    let reg_before = dev.bram_outreg(0, 0);
    let addr = FrameAddr {
        block: BlockType::BramContent,
        major: 0,
        minor: 0,
    };
    dev.set_clock_running(true);
    let (_, _) = dev.readback_frame(addr, ReadbackOptions::default());
    let reg_after = dev.bram_outreg(0, 0);
    assert_ne!(
        reg_before, reg_after,
        "content readback corrupts the BRAM output register (paper §IV-A)"
    );

    // All sub-frames of other blocks leave this register alone.
    let reg_now = dev.bram_outreg(0, 1);
    let addr_other = FrameAddr {
        block: BlockType::BramContent,
        major: 0,
        minor: BRAM_CONTENT_SUBFRAMES as u32, // block 1
    };
    let _ = dev.readback_frame(addr_other, ReadbackOptions::default());
    assert_ne!(dev.bram_outreg(0, 1), reg_now, "block 1 register corrupted");
    assert_eq!(
        dev.bram_outreg(0, 0),
        reg_after,
        "block 0 untouched by block 1 readback"
    );
}

#[test]
fn scrubbing_a_dynamic_frame_clobbers_runtime_state_rmw_problem() {
    // §IV-B: "If a configuration bitstream data frame is repaired with the
    // original bitstream data when RAMs or LUT-based shift registers are
    // contained in the design, the contents of these dynamic resources
    // will be overwritten with their original initialization state."
    let geom = Geometry::tiny();
    let mut dev = Device::new(geom.clone());
    let bs = srl_config(&geom);
    dev.configure_full(&bs);
    for _ in 0..20 {
        dev.step(&[]);
    }
    let live = dev
        .config()
        .read_tile_field(Tile::new(0, 0), lut_table_offset(0, 0, 0), 16);
    assert_eq!(live, 0xffff);

    // A naive scrub restores every table-carrying frame of the column to
    // its golden (init = 0) state. Under the Virtex interleaving the 16
    // table bits live in 16 different frames — the very spread that makes
    // §IV's masking so expensive.
    let minors: std::collections::HashSet<usize> = (0..16)
        .map(|b| dev.config().tile_pos(lut_table_offset(0, 0, b)) / TILE_BITS_PER_FRAME)
        .collect();
    assert_eq!(
        minors.len(),
        16,
        "Virtex scatters table bits across 16 frames"
    );
    for minor in minors {
        let addr = FrameAddr::clb(0, minor);
        let golden = bs.read_frame(addr);
        dev.partial_configure_frame(addr, &golden);
    }
    let clobbered = dev
        .config()
        .read_tile_field(Tile::new(0, 0), lut_table_offset(0, 0, 0), 16);
    assert_eq!(clobbered, 0, "scrub wiped 20 cycles of live shift data");
}

#[test]
fn capture_readback_roundtrip_costs_and_frame_sizes() {
    let geom = Geometry::xqvr1000();
    let cm = ConfigMemory::new(geom.clone());
    // The flight device's CLB frame moves ≈240 bytes — same order as the
    // paper's quoted 156 bytes/frame for the XQVR1000.
    assert_eq!(cm.frame_bytes(BlockType::Clb), 240);
    // ≈5.8 Mbit of configuration at flight scale (paper: 5.8 Mbit).
    let mbit = cm.total_bits() as f64 / 1e6;
    assert!(
        (5.0..12.0).contains(&mbit),
        "flight config size {mbit:.1} Mbit"
    );
}

#[test]
fn hazard_cache_follows_mode_flips_on_an_uncompiled_device() {
    // The device caches which LUTs are dynamic. `flip_config_bit` returns
    // early when no compiled network exists, and a mode-bit flip on that
    // path must still reach the cache: the readback after it has to
    // corrupt exactly what a device with a cold cache corrupts.
    let geom = Geometry::tiny();
    let t = Tile::new(0, 0);
    let mut bs = srl_config(&geom);
    bs.write_tile_field(t, lut_mode_offset(0, 0), 2, LutMode::Logic as u64);
    bs.write_tile_field(t, lut_table_offset(0, 0, 0), 16, 0x5A3C);
    let mut dev = Device::new(geom);
    // No step or sample follows, so the network is never compiled.
    dev.configure_full(&bs);
    dev.set_clock_running(true);
    let minor = dev.config().tile_pos(lut_table_offset(0, 0, 0)) / TILE_BITS_PER_FRAME;
    let addr = FrameAddr::clb(0, minor);
    let table = |d: &Device| d.config().read_tile_field(t, lut_table_offset(0, 0, 0), 16);

    // Warm the cache: the LUT is static, so this readback is clean.
    let (clean, _) = dev.readback_frame(addr, ReadbackOptions::default());
    assert_eq!(clean, bs.read_frame(addr));
    assert_eq!(table(&dev), 0x5A3C);

    // Logic (0b00) → RAM (0b10), then back; each time the warm device
    // must match a clone with a cold cache, bit for bit.
    let mode_bit = dev.config().tile_bit_index(t, lut_mode_offset(0, 0) + 1);
    for becomes_dynamic in [true, false] {
        dev.flip_config_bit(mode_bit);
        let before = table(&dev);
        let mut cold = dev.clone();
        let (warm_data, _) = dev.readback_frame(addr, ReadbackOptions::default());
        let (cold_data, _) = cold.readback_frame(addr, ReadbackOptions::default());
        assert_eq!(warm_data, cold_data, "dynamic = {becomes_dynamic}");
        assert!(dev.config() == cold.config(), "dynamic = {becomes_dynamic}");
        assert_eq!(
            table(&dev) != before,
            becomes_dynamic,
            "only a dynamic LUT is corrupted by readback"
        );
    }
}

#[test]
fn hazard_cache_follows_mode_frame_writes() {
    // The twin of the flip test above through the configuration port: a
    // partial configuration that turns the LUT dynamic, then one that
    // restores the golden frame and with it the mode bit, must each leave
    // the warm device reading back exactly as a clone with a cold cache.
    let geom = Geometry::tiny();
    let t = Tile::new(0, 0);
    let mut bs = srl_config(&geom);
    bs.write_tile_field(t, lut_mode_offset(0, 0), 2, LutMode::Logic as u64);
    bs.write_tile_field(t, lut_table_offset(0, 0, 0), 16, 0x5A3C);
    let mut dev = Device::new(geom);
    dev.configure_full(&bs);
    dev.set_clock_running(true);
    let minor = dev.config().tile_pos(lut_table_offset(0, 0, 0)) / TILE_BITS_PER_FRAME;
    let addr = FrameAddr::clb(0, minor);
    let table = |d: &Device| d.config().read_tile_field(t, lut_table_offset(0, 0, 0), 16);

    // Warm the cache: the LUT is static, so this readback is clean.
    let (clean, _) = dev.readback_frame(addr, ReadbackOptions::default());
    assert_eq!(clean, bs.read_frame(addr));

    // The frame holding the mode bit, with the LUT in RAM mode (0b10)
    // and as configured (Logic, 0b00).
    let mode_bit = bs.tile_bit_index(t, lut_mode_offset(0, 0) + 1);
    let (mode_addr, _) = bs.locate(mode_bit);
    assert_ne!(mode_addr, addr, "the mode bit lies outside the read frame");
    let golden = bs.read_frame(mode_addr);
    let mut ram = bs.clone();
    ram.flip_bit(mode_bit);
    let ram = ram.read_frame(mode_addr);
    for (frame, becomes_dynamic) in [(&ram, true), (&golden, false)] {
        dev.partial_configure_frame(mode_addr, frame);
        let before = table(&dev);
        let mut cold = dev.clone();
        let (warm_data, _) = dev.readback_frame(addr, ReadbackOptions::default());
        let (cold_data, _) = cold.readback_frame(addr, ReadbackOptions::default());
        assert_eq!(warm_data, cold_data, "dynamic = {becomes_dynamic}");
        assert!(dev.config() == cold.config(), "dynamic = {becomes_dynamic}");
        assert_eq!(
            table(&dev) != before,
            becomes_dynamic,
            "only a dynamic LUT is corrupted by readback"
        );
    }
}

/// Every BRAM block's output register and port lock, column by column.
fn bram_state(dev: &Device) -> Vec<(u16, u8)> {
    let geom = dev.geometry();
    (0..geom.bram_cols)
        .flat_map(|col| (0..geom.bram_blocks_per_col()).map(move |block| (col, block)))
        .map(|(col, block)| {
            (
                dev.bram_outreg(col, block),
                dev.bram_lock_cycles(col, block),
            )
        })
        .collect()
}

#[test]
fn skip_clean_frames_stops_where_a_read_is_needed() {
    let geom = Geometry::tiny();
    let bs = srl_config(&geom);
    let mut dev = Device::new(geom);
    dev.configure_full(&bs);
    let n = bs.frame_count();
    let bytes = |frames: std::ops::Range<usize>| -> u64 {
        frames
            .map(|f| bs.frame_bytes(bs.frame_addr(f).block) as u64)
            .sum()
    };
    let mut masked = vec![false; n];
    let mut matched: Vec<Option<FrameStamp>> =
        (0..n).map(|f| Some(dev.config().frame_stamp(f))).collect();

    // Clock stopped: every readback is pure and every record holds.
    dev.set_clock_running(false);
    assert_eq!(
        dev.skip_clean_frames(0, &masked, &matched),
        (n, n as u64, bytes(0..n), false)
    );

    // Clock running: column 0 holds the SRL16, so its first frame needs a
    // read, and the read would rewrite the frame. Past column 0 the walk
    // runs to the end: a BRAM content frame's read disturbs its block but
    // returns the frame exactly, so the walk passes it too and disturbs
    // the block as the read would — exactly as a device that read every
    // content frame it passed.
    dev.set_clock_running(true);
    assert_eq!(
        dev.skip_clean_frames(0, &masked, &matched),
        (0, 0, 0, false)
    );
    let content = bs.frame_index(FrameAddr {
        block: BlockType::BramContent,
        major: 0,
        minor: 0,
    });
    let clb = FRAMES_PER_CLB_COL;
    let mut reader = dev.clone();
    assert_eq!(
        dev.skip_clean_frames(clb, &masked, &matched),
        (n, (n - clb) as u64, bytes(clb..n), false)
    );
    for f in content..n {
        reader.readback_frame(bs.frame_addr(f), ReadbackOptions::default());
    }
    assert_eq!(bram_state(&dev), bram_state(&reader));
    assert!(bram_state(&dev).iter().all(|&(_, lock)| lock == 2));

    // A stale record on block 0's second content frame stops the walk
    // there, with the read exact: only the first content frame was passed.
    dev.configure_full(&bs);
    let mut reader = dev.clone();
    let stale = content + 1;
    matched[stale] = None;
    assert_eq!(
        dev.skip_clean_frames(clb, &masked, &matched),
        (stale, (stale - clb) as u64, bytes(clb..stale), true)
    );
    reader.readback_frame(bs.frame_addr(content), ReadbackOptions::default());
    assert_eq!(bram_state(&dev), bram_state(&reader));
    assert_eq!(bram_state(&dev)[0], (0xA5A5, 2));
    matched[stale] = Some(dev.config().frame_stamp(stale));

    // Past column 0, a stale record stops the walk at a frame whose read
    // would be exact; a masked frame is passed over without being counted.
    matched[100] = None;
    assert_eq!(
        dev.skip_clean_frames(clb, &masked, &matched),
        (100, (100 - clb) as u64, bytes(clb..100), true)
    );
    masked[100] = true;
    let after = dev.skip_clean_frames(clb, &masked, &matched);
    assert_eq!(
        after,
        (
            n,
            (n - clb - 1) as u64,
            bytes(clb..n) - bytes(100..101),
            false
        )
    );

    // A pending read fault makes every readback inexact.
    dev.inject_read_fault(ReadFault::Abort);
    assert_eq!(
        dev.skip_clean_frames(clb, &masked, &matched),
        (clb, 0, 0, false)
    );
}
