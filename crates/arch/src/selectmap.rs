//! The SelectMAP-style configuration port (paper §II-A, §IV).
//!
//! Three operations, all frame-granular and all usable while the design
//! executes: full configuration (the only operation that runs the start-up
//! sequence and therefore the only one that restores half-latches),
//! frame-wise partial configuration, and frame-wise readback. Each returns
//! the simulated-time cost of moving the bytes over the byte-wide port so
//! fault managers can reproduce the paper's 180 ms scan cycle and the SEU
//! simulator its 100 µs single-frame load.
//!
//! The readback hazards the paper documents are modelled here:
//!
//! * Reading a CLB frame that holds the truth table of a LUT used as RAM
//!   or SRL16 while the clock runs corrupts that LUT's contents.
//! * Reading a BRAM content frame corrupts the block's output register and
//!   steals its address lines for a couple of cycles.
//! * Readback of an unprogrammed device returns garbage.

use crate::bits::{ff_init_offset, LutMode};
use crate::bits::{lut_mode_offset, lut_table_offset, FRAMES_PER_CLB_COL, TILE_BITS_PER_FRAME};
use crate::device::{Bitstream, Device};
use crate::frames::{BlockType, ConfigMemory, FrameAddr, FrameStamp, BRAM_CONTENT_SUBFRAMES};
use crate::geometry::Tile;
use crate::time::SimDuration;

/// Configuration-port cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortTiming {
    /// Nanoseconds to move one byte over the port (byte-wide SelectMAP at
    /// 50 MHz ⇒ 20 ns).
    pub ns_per_byte: u64,
    /// Fixed command overhead per frame operation (address setup, sync
    /// words).
    pub op_overhead_ns: u64,
    /// Start-up sequence cost after a full configuration.
    pub startup_ns: u64,
}

impl Default for PortTiming {
    fn default() -> Self {
        PortTiming {
            ns_per_byte: 20,
            op_overhead_ns: 2_000,
            startup_ns: 100_000,
        }
    }
}

impl PortTiming {
    fn frame_op(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(self.op_overhead_ns + bytes as u64 * self.ns_per_byte)
    }
}

/// The BRAM content readback hazard on one block (paper §IV-A): the
/// read corrupts the block's output register and the configuration logic
/// owns its address lines for the next two cycles.
fn disturb_bram(outreg: &mut u16, locked: &mut u8) {
    *outreg ^= 0xA5A5;
    *locked = 2;
}

/// The LUTs configured as RAM or SRL16 — the sites the CLB readback
/// hazard corrupts (cached in [`Device`]). A column's sites derive from
/// its LUT mode fields alone, which sit in one frame per slice, so each
/// column keeps the [`FrameStamp`]s of those two frames and is derived
/// again only when one of them moved.
#[derive(Debug)]
pub(crate) struct DynamicLuts {
    /// Entry `tile_index(tile)` holds bit `slice * 2 + lut` per dynamic LUT.
    sites: Vec<u8>,
    /// Per CLB column, the state its sites were derived in.
    columns: Vec<ModeColumn>,
    /// Per slice, the minor of the CLB frame holding its LUT mode fields.
    mode_minors: [usize; 2],
}

/// One CLB column of [`DynamicLuts`].
#[derive(Debug)]
struct ModeColumn {
    /// Per slice, the stamp of the frame holding its mode fields.
    stamps: [FrameStamp; 2],
    /// Whether the column holds a dynamic LUT.
    dynamic: bool,
}

impl DynamicLuts {
    /// Every column derived from `config`.
    #[cold]
    fn new(config: &ConfigMemory) -> Self {
        let geom = config.geometry();
        let mode_minors = [0, 1].map(|slice| {
            let minor = config.tile_pos(lut_mode_offset(slice, 0)) / TILE_BITS_PER_FRAME;
            debug_assert!((0..4).all(|k| {
                config.tile_pos(lut_mode_offset(slice, 0) + k) / TILE_BITS_PER_FRAME == minor
            }));
            minor
        });
        let mut luts = DynamicLuts {
            sites: vec![0; geom.num_tiles()],
            columns: Vec::with_capacity(geom.cols),
            mode_minors,
        };
        for col in 0..geom.cols {
            let column = luts.derive(config, col);
            luts.columns.push(column);
        }
        luts
    }

    /// The current stamps of the frames holding column `col`'s mode fields.
    #[inline]
    fn stamps(&self, config: &ConfigMemory, col: usize) -> [FrameStamp; 2] {
        self.mode_minors
            .map(|minor| config.frame_stamp(col * FRAMES_PER_CLB_COL + minor))
    }

    /// Read column `col`'s mode fields into `sites`.
    fn derive(&mut self, config: &ConfigMemory, col: usize) -> ModeColumn {
        let geom = config.geometry();
        // Each mode bit sits at one position of its column's frames, and
        // row r's lies r tile slots past row 0's; site `slice * 2 + lut`.
        let base = [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(slice, lut)| {
            [0, 1]
                .map(|k| config.tile_bit_index(Tile::new(0, col), lut_mode_offset(slice, lut) + k))
        });
        let mut dynamic = false;
        for row in 0..geom.rows {
            let at = row * TILE_BITS_PER_FRAME;
            let mut sites = 0u8;
            for (site, [b0, b1]) in base.iter().enumerate() {
                let mode = config.get_bit(b0 + at) as u64 | (config.get_bit(b1 + at) as u64) << 1;
                if LutMode::from_bits(mode).is_dynamic() {
                    sites |= 1 << site;
                }
            }
            self.sites[geom.tile_index(Tile::new(row, col))] = sites;
            dynamic |= sites != 0;
        }
        ModeColumn {
            stamps: self.stamps(config, col),
            dynamic,
        }
    }

    /// Whether column `col` holds a dynamic LUT, derived again first if a
    /// frame holding its mode fields was written since.
    #[inline]
    fn column(&mut self, config: &ConfigMemory, col: usize) -> bool {
        if self.columns[col].stamps != self.stamps(config, col) {
            self.columns[col] = self.derive(config, col);
        }
        self.columns[col].dynamic
    }
}

/// Options for a readback operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadbackOptions {
    /// Capture current flip-flop values into their init-bit positions
    /// (the Virtex CAPTURE mechanism; used by the BIST wire test).
    pub capture_ff: bool,
}

/// A single-shot injectable fault on the port's *read* path. SEFIs strike
/// the SelectMAP interface and the configuration logic behind it — the
/// scrubber's own eyes — so the fault-management loop must tolerate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// The next readback completes but returns corrupted bytes (the
    /// configuration array itself is untouched).
    Corrupt { bit_flips: u32 },
    /// The next readback aborts mid-frame; no data is returned.
    Abort,
    /// The next readback wedges the port: every subsequent port operation
    /// fails until [`Device::port_reset`].
    Wedge,
}

/// A single-shot injectable fault on the port's *write* path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The next frame write is acknowledged but silently dropped — the
    /// configuration array keeps its old contents. Only verify-after-write
    /// can catch this.
    SilentDrop,
    /// The next frame write wedges the port.
    Wedge,
}

/// Why a fault-aware port operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortError {
    /// The port is wedged (SEFI); only a power-cycle of the configuration
    /// interface ([`Device::port_reset`]) recovers it.
    Wedged,
    /// The operation aborted; retrying may succeed.
    Aborted,
}

impl std::fmt::Display for PortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortError::Wedged => write!(f, "configuration port wedged (SEFI)"),
            PortError::Aborted => write!(f, "configuration port operation aborted"),
        }
    }
}

impl std::error::Error for PortError {}

impl Device {
    /// Full configuration: load every frame and run the start-up sequence.
    /// This is the only operation that re-initialises half-latches.
    ///
    /// The image is copied into the device's own configuration memory,
    /// and only the frames whose bits change take a write: every other
    /// frame keeps its [`FrameStamp`], so a fault manager's match record
    /// for it, and the dynamic-LUT sites derived from it, still hold.
    /// The whole image is charged as moved over the port all the same.
    pub fn configure_full(&mut self, bs: &Bitstream) -> SimDuration {
        assert_eq!(
            bs.geometry(),
            &self.geom,
            "bitstream geometry does not match device"
        );
        self.config.copy_from(bs);
        self.invalidate();
        self.half_latches.startup_init();
        self.programmed = true;
        self.cycles = 0;
        self.design_wrote_config = false;
        self.bram_locked.fill(0);
        self.reset();
        let total_bytes: usize = self
            .config
            .block_ranges()
            .into_iter()
            .map(|(block, range, _)| range.len() * self.config.frame_bytes(block))
            .sum();
        SimDuration::from_nanos(
            self.port_timing.op_overhead_ns
                + total_bytes as u64 * self.port_timing.ns_per_byte
                + self.port_timing.startup_ns,
        )
    }

    /// Partial configuration: overwrite one frame while the design runs.
    /// Does not touch flip-flop state or half-latches — exactly why the
    /// paper's scrubber can repair SEUs without interrupting service, and
    /// why it cannot repair half-latch upsets.
    pub fn partial_configure_frame(&mut self, addr: FrameAddr, data: &[u8]) -> SimDuration {
        self.config.write_frame(addr, data);
        self.invalidate();
        self.port_timing
            .frame_op(self.config.frame_bytes(addr.block))
    }

    /// Readback: serialize one frame while the design runs.
    pub fn readback_frame(
        &mut self,
        addr: FrameAddr,
        opts: ReadbackOptions,
    ) -> (Vec<u8>, SimDuration) {
        let dur = self
            .port_timing
            .frame_op(self.config.frame_bytes(addr.block));
        if !self.programmed {
            // The configuration FSM is upset: readback returns garbage.
            let n = self.config.frame_bytes(addr.block);
            let mut seed = (self.config.frame_index(addr) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.hazard_counter);
            self.hazard_counter = self.hazard_counter.wrapping_add(1);
            let data = (0..n)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    (seed & 0xff) as u8
                })
                .collect();
            return (data, dur);
        }

        if self.clock_running {
            match addr.block {
                // Dynamic LUT contents corrupt if their frame is read
                // while the clock runs.
                BlockType::Clb if self.dynamic_column(addr.major as usize) => {
                    self.corrupt_dynamic_luts_in_frame(addr)
                }
                BlockType::BramContent => {
                    let block = addr.minor as usize / BRAM_CONTENT_SUBFRAMES;
                    let reg = addr.major as usize * self.geom.bram_blocks_per_col() + block;
                    disturb_bram(&mut self.bram_outreg[reg], &mut self.bram_locked[reg]);
                }
                _ => {}
            }
        }

        let mut data = self.config.read_frame(addr);
        if opts.capture_ff && addr.block == BlockType::Clb {
            self.capture_ffs_into(addr, &mut data);
        }
        (data, dur)
    }

    /// Whether CLB column `col` holds a LUT used as RAM or SRL16, whose
    /// frames a readback with the clock running rewrites before copying.
    #[inline]
    fn dynamic_column(&mut self, col: usize) -> bool {
        self.dynamic_luts
            .get_or_insert_with(|| DynamicLuts::new(&self.config))
            .column(&self.config, col)
    }

    /// Skip, from dense frame index `from` on, every frame a scan need
    /// not read back: the frames `masked` marks, and the frames whose
    /// readback is exact and whose [`FrameStamp`] equals their entry in
    /// `matched` (both hold one entry per frame, in dense order). A
    /// readback is exact when the device is programmed, the port is not
    /// wedged, no read fault is pending and, for a CLB frame, the clock
    /// is stopped or its column holds no dynamic LUT:
    /// [`Device::try_readback_frame`] would then return exactly
    /// `config().read_frame(addr)` and leave configuration memory as it
    /// was, so a fault manager that holds the frame's CRC for its current
    /// stamp may skip it.
    ///
    /// With the clock running, reading a BRAM content frame disturbs its
    /// block's output register and port but not the frame, so the read
    /// stays exact. The walk therefore
    /// skips such a frame like any other and applies, frame by frame in
    /// scan order, the output-register corruption and port lock the read
    /// would: a device that walked past a frame and one that read it hold
    /// the same state. Besides the derived dynamic-LUT cache, that is the
    /// only device state the walk changes.
    ///
    /// Returns the first frame that needs a real read (`frame_count()`
    /// when none does), the number and total bytes of the unmasked frames
    /// skipped, and whether reading the returned frame now would be exact.
    pub fn skip_clean_frames(
        &mut self,
        from: usize,
        masked: &[bool],
        matched: &[Option<FrameStamp>],
    ) -> (usize, u64, u64, bool) {
        let device_exact = self.programmed && !self.port_wedged && self.read_faults.is_empty();
        let (mut frames, mut bytes) = (0u64, 0u64);
        for (block, range, per_major) in self.config.block_ranges() {
            let frame_bytes = self.config.frame_bytes(block) as u64;
            let disturbs_bram = self.clock_running && block == BlockType::BramContent;
            let mut fi = from.max(range.start);
            while fi < range.end {
                // Exactness is decided once per major address.
                let major = (fi - range.start) / per_major;
                let end = range.start + (major + 1) * per_major;
                let exact = device_exact
                    && !(block == BlockType::Clb
                        && self.clock_running
                        && self.dynamic_column(major));
                let run = masked[fi..end]
                    .iter()
                    .zip(&matched[fi..end])
                    .zip(self.config.frame_stamps(fi..end));
                for (f, ((&masked, record), stamp)) in (fi..end).zip(run) {
                    if masked {
                        continue;
                    }
                    if !exact || *record != Some(stamp) {
                        return (f, frames, bytes, exact);
                    }
                    if disturbs_bram {
                        // Content frames of a block are consecutive, and
                        // blocks lie in output-register order.
                        let reg = (f - range.start) / BRAM_CONTENT_SUBFRAMES;
                        disturb_bram(&mut self.bram_outreg[reg], &mut self.bram_locked[reg]);
                    }
                    frames += 1;
                    bytes += frame_bytes;
                }
                fi = end;
            }
        }
        (self.config.frame_count(), frames, bytes, false)
    }

    /// Flip one configuration bit directly (test/bench convenience; a real
    /// injector reads, flips, and rewrites the containing frame, which is
    /// what [`crate::selectmap`]-level campaigns do).
    ///
    /// Bits that cannot change network *structure* — LUT truth-table bits,
    /// FF init values, BRAM contents, padding — are patched into the
    /// compiled cache in place; structural bits (routing, modes, port
    /// bindings) set the compiled network aside, so the next step
    /// compiles the corrupted configuration, and flipping the same bit
    /// back — the repair — puts the network back instead of compiling it
    /// again. Any other flip drops a network set aside. Fault-injection
    /// campaigns flip millions of bits, so this distinction is the
    /// difference between a memcpy and a full recompile per experiment.
    pub fn flip_config_bit(&mut self, global: usize) {
        use crate::bits::BitRole;
        use crate::frames::BitLocus;

        let new_val = self.config.flip_bit(global);
        if self.restore_network(global) || self.compiled.is_none() {
            return;
        }
        enum Patch {
            None,
            LutTable { key: usize, bit: u8 },
            FfInit { key: usize },
            Structural,
        }
        let patch = match self.config.describe(global) {
            BitLocus::Clb { tile, role } => match role {
                BitRole::LutTable { slice, lut, bit } => Patch::LutTable {
                    key: self.geom.tile_index(tile) * 4 + slice as usize * 2 + lut as usize,
                    bit,
                },
                BitRole::FfInit { slice, ff } => Patch::FfInit {
                    key: self.ff_index(tile, slice as usize, ff as usize),
                },
                BitRole::SliceReserved { .. } | BitRole::Pad => Patch::None,
                _ => Patch::Structural,
            },
            // BRAM content is read live from configuration memory.
            BitLocus::BramContent { .. } => Patch::None,
            _ => Patch::Structural,
        };
        match patch {
            Patch::None => {}
            Patch::Structural => self.keep_network(global),
            Patch::LutTable { key, bit } => {
                let compiled = self.compiled.as_mut().unwrap();
                let id = compiled.lut_site_index[key];
                if id != u32::MAX {
                    let t = &mut compiled.luts[id as usize].table;
                    if new_val {
                        *t |= 1 << bit;
                    } else {
                        *t &= !(1 << bit);
                    }
                }
            }
            Patch::FfInit { key } => {
                let compiled = self.compiled.as_mut().unwrap();
                let id = compiled.ff_site_index[key];
                if id != u32::MAX {
                    compiled.ffs[id as usize].init = new_val;
                }
            }
        }
    }

    /// Flip one table bit of each dynamic LUT in `addr`'s column with a
    /// table bit in that frame, visiting (slice, lut, row) in order.
    fn corrupt_dynamic_luts_in_frame(&mut self, addr: FrameAddr) {
        let (col, minor) = (addr.major as usize, addr.minor as usize);
        let dynamic = &self
            .dynamic_luts
            .as_ref()
            .expect("validated by dynamic_column")
            .sites;
        let mut corrupted = false;
        for slice in 0..2 {
            for lut in 0..2 {
                let table_off = lut_table_offset(slice, lut, 0);
                // Does any of this LUT's 16 table bits live in this frame?
                let hit = (0..16)
                    .any(|b| self.config.tile_pos(table_off + b) / TILE_BITS_PER_FRAME == minor);
                if !hit {
                    continue;
                }
                for row in 0..self.geom.rows {
                    let tile = Tile::new(row, col);
                    if (dynamic[self.geom.tile_index(tile)] >> (slice * 2 + lut)) & 1 == 1 {
                        let bit = (self.hazard_counter % 16) as usize;
                        self.hazard_counter = self.hazard_counter.wrapping_add(1);
                        let idx = self.config.tile_bit_index(tile, table_off + bit);
                        self.config.flip_bit(idx);
                        corrupted = true;
                    }
                }
            }
        }
        if corrupted {
            self.invalidate();
        }
    }

    fn capture_ffs_into(&self, addr: FrameAddr, data: &mut [u8]) {
        let col = addr.major as usize;
        let minor = addr.minor as usize;
        for slice in 0..2 {
            for ff in 0..2 {
                let pos = self.config.tile_pos(ff_init_offset(slice, ff));
                if pos / TILE_BITS_PER_FRAME != minor {
                    continue;
                }
                let within = pos % TILE_BITS_PER_FRAME;
                for row in 0..self.geom.rows {
                    let v = self.ff(Tile::new(row, col), slice, ff);
                    let pos = row * TILE_BITS_PER_FRAME + within;
                    if v {
                        data[pos / 8] |= 1 << (pos % 8);
                    } else {
                        data[pos / 8] &= !(1 << (pos % 8));
                    }
                }
            }
        }
    }

    // ---- SEFI-aware port operations -------------------------------------
    //
    // The plain `readback_frame`/`partial_configure_frame` above model a
    // perfect port and are kept for callers that inject no port faults
    // (BIST, injection campaigns). Fault-tolerant flight software uses the
    // `try_*` variants, which consume injected [`ReadFault`]/[`WriteFault`]
    // events and surface a wedged port instead of assuming success. With no
    // faults pending the `try_*` variants behave — and cost — exactly like
    // the plain ones.

    /// Fault-aware readback. Consumes at most one pending [`ReadFault`].
    /// A wedged or aborted operation still charges port time (the flight
    /// software discovers the failure by timeout).
    pub fn try_readback_frame(
        &mut self,
        addr: FrameAddr,
        opts: ReadbackOptions,
    ) -> (Result<Vec<u8>, PortError>, SimDuration) {
        let dur = self
            .port_timing
            .frame_op(self.config.frame_bytes(addr.block));
        if self.port_wedged {
            self.port_faults.wedged_rejections += 1;
            return (Err(PortError::Wedged), dur);
        }
        match self.read_faults.pop_front() {
            Some(ReadFault::Abort) => {
                self.port_faults.read_aborts += 1;
                (Err(PortError::Aborted), dur)
            }
            Some(ReadFault::Wedge) => {
                self.port_wedged = true;
                self.port_faults.wedges += 1;
                (Err(PortError::Wedged), dur)
            }
            Some(ReadFault::Corrupt { bit_flips }) => {
                self.port_faults.read_corruptions += 1;
                let (mut data, dur) = self.readback_frame(addr, opts);
                let nbits = data.len() * 8;
                for _ in 0..bit_flips {
                    let mut s = self
                        .hazard_counter
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(0x5EF1);
                    s ^= s >> 29;
                    self.hazard_counter = self.hazard_counter.wrapping_add(1);
                    let bit = (s as usize) % nbits.max(1);
                    data[bit / 8] ^= 1 << (bit % 8);
                }
                (Ok(data), dur)
            }
            None => {
                let (data, dur) = self.readback_frame(addr, opts);
                (Ok(data), dur)
            }
        }
    }

    /// Fault-aware partial configuration. Consumes at most one pending
    /// [`WriteFault`]. A [`WriteFault::SilentDrop`] reports success without
    /// touching the array — exactly the failure verify-after-write exists
    /// to catch.
    pub fn try_partial_configure_frame(
        &mut self,
        addr: FrameAddr,
        data: &[u8],
    ) -> (Result<(), PortError>, SimDuration) {
        let dur = self
            .port_timing
            .frame_op(self.config.frame_bytes(addr.block));
        if self.port_wedged {
            self.port_faults.wedged_rejections += 1;
            return (Err(PortError::Wedged), dur);
        }
        match self.write_faults.pop_front() {
            Some(WriteFault::SilentDrop) => {
                self.port_faults.write_drops += 1;
                (Ok(()), dur)
            }
            Some(WriteFault::Wedge) => {
                self.port_wedged = true;
                self.port_faults.wedges += 1;
                (Err(PortError::Wedged), dur)
            }
            None => {
                let dur = self.partial_configure_frame(addr, data);
                (Ok(()), dur)
            }
        }
    }

    /// Power-cycle the configuration interface (the simulated board-level
    /// recovery of the escalation ladder): un-wedges the port and flushes
    /// pending injected port faults. Configuration memory, user state and
    /// half-latches are untouched.
    pub fn port_reset(&mut self) -> SimDuration {
        self.port_wedged = false;
        self.read_faults.clear();
        self.write_faults.clear();
        self.port_faults.resets += 1;
        SimDuration::from_nanos(self.port_timing.startup_ns)
    }

    /// Read back the whole device (every frame), returning total simulated
    /// time — the building block of the scrubber's scan cycle.
    pub fn readback_all(
        &mut self,
        opts: ReadbackOptions,
    ) -> (Vec<(FrameAddr, Vec<u8>)>, SimDuration) {
        let addrs: Vec<FrameAddr> = self.config.frame_addrs().collect();
        let mut total = SimDuration::ZERO;
        let mut frames = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let (data, d) = self.readback_frame(addr, opts);
            total += d;
            frames.push((addr, data));
        }
        (frames, total)
    }
}

/// Number of CLB frames per column (re-exported for fault managers sizing
/// their CRC codebooks).
pub const CLB_FRAMES_PER_COL: usize = FRAMES_PER_CLB_COL;
