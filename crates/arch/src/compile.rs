//! Compile the *current* configuration memory into an executable network.
//!
//! The compiler starts from the device's bound output ports and pulls in
//! the transitive fan-in: slice outputs resolve through output
//! multiplexers, PIP chains and input multiplexers back to LUTs,
//! flip-flops, BRAM ports, half-latches, input ports or constants. Logic
//! outside every output cone is provably unobservable — flipping its bits
//! cannot change behaviour — which both matches the paper's sensitivity
//! definition and is what makes exhaustive injection campaigns tractable.
//!
//! The compiler reads whatever the configuration memory *currently* says,
//! so a corrupted bitstream compiles to the corrupted circuit: broken
//! connections become floating (constant-0) sources, illegal selects
//! bridge wires, and new combinational cycles are tolerated (the engine
//! relaxes them iteratively).
//!
//! [`compile_with`] can also pull in extra sites beyond the output cones;
//! [`crate::delta::DeltaMap`] uses it to build the augmented network the
//! wide engine runs structural upsets on.
//!
//! Last, every operand is lowered from its [`Src`] to a slot of one flat
//! value array ([`Layout`]), so both engines gather operands by index.
//! `Src` stays the currency of the compiler, the delta map and the
//! reachability pass; the engines read slots only.

use std::collections::HashMap;

use crate::bits::{
    decode_mux, decode_pip, ff_dmux_offset, ff_init_offset, input_mux_offset, lut_mode_offset,
    lut_table_offset, out_sel_offset, outmux_offset, pip_offset, LutMode, MuxPin, MuxSel,
    OUTMUX_BITS_PER_WIRE, PIP_BITS_PER_WIRE,
};
use crate::device::Device;
use crate::frames::{bram_if_addr_off, bram_if_din_off, Edge, BRAM_IF_EN_OFF, BRAM_IF_WE_OFF};
use crate::geometry::{Dir, Geometry, Tile, OUTMUX_WIRES_PER_DIR, WIRES_PER_DIR};
use crate::halflatch::HlSite;
use crate::permfault::FaultSite;

/// Maximum PIP chain length traced before declaring a routing loop.
pub(crate) const MAX_TRACE_DEPTH: usize = 64;

/// A value source in the compiled network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    Zero,
    One,
    /// A half-latch-kept unconnected input.
    HalfLatch {
        site: HlSite,
        invert: bool,
    },
    /// Output of compiled LUT node `0`.
    Lut(u32),
    /// Output of compiled flip-flop node `0`.
    Ff(u32),
    /// Bit `bit` of the output register of compiled BRAM node `id`.
    Bram {
        id: u32,
        bit: u8,
    },
    /// External input port.
    Input {
        port: u16,
        invert: bool,
    },
}

/// A compiled LUT.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CLut {
    pub tile: Tile,
    pub slice: u8,
    pub lut: u8,
    pub mode: LutMode,
    pub pins: [Src; 4],
    /// Write data (RAM/shift modes): BX for LUT F, BY for LUT G.
    pub data: Src,
    /// Write enable (RAM/shift modes): SRX for LUT F, SRY for LUT G.
    pub we: Src,
    /// Cached truth table (kept in sync with configuration memory).
    pub table: u16,
}

/// A compiled flip-flop.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CFf {
    pub d: Src,
    pub ce: Src,
    pub sr: Src,
    pub init: bool,
    /// Index into the device's persistent flip-flop state store.
    pub state_idx: usize,
}

/// A compiled BRAM block port.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CBram {
    pub col: u16,
    pub block: u16,
    pub addr: [Src; 8],
    pub din: [Src; 16],
    pub we: Src,
    pub en: Src,
    /// Index into the device's output-register store.
    pub reg_idx: usize,
}

/// A LUT, flip-flop or BRAM site the compiler can be asked to pull in
/// beyond the output cones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    Lut { tile: Tile, slice: u8, lut: u8 },
    Ff { tile: Tile, slice: u8, ff: u8 },
    Bram { col: u16, block: u16 },
}

/// Node counts of a compiled network. A network compiled by
/// [`compile_with`] holds the plain compile's nodes as an id prefix, so
/// the plain counts split it into the golden cone and the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NodeCounts {
    pub luts: usize,
    pub ffs: usize,
    pub brams: usize,
}

impl NodeCounts {
    pub fn of(net: &Compiled) -> NodeCounts {
        NodeCounts {
            luts: net.luts.len(),
            ffs: net.ffs.len(),
            brams: net.brams.len(),
        }
    }

    /// True if `s` is a node at or past these counts.
    pub fn beyond(&self, s: Src) -> bool {
        match s {
            Src::Lut(i) => i as usize >= self.luts,
            Src::Ff(i) => i as usize >= self.ffs,
            Src::Bram { id, .. } => id as usize >= self.brams,
            _ => false,
        }
    }
}

/// The half-latch sites a network reads, one bit per mux pin of each
/// slice and BRAM block. A site's rank among them in [`HlSite`] order —
/// its half-latch slot pair — is a prefix count, with no sort or search.
#[derive(Debug, Clone)]
pub(crate) struct HlIndex {
    cols: usize,
    /// Slices on the device: the entries before the BRAM blocks'.
    slices: usize,
    blocks_per_col: usize,
    /// Per slice (tile index × 2 + slice), then per BRAM block: the pins
    /// read through a half-latch, and the rank of the first.
    pins: Vec<(u32, u32)>,
}

impl HlIndex {
    fn new(geom: &Geometry) -> HlIndex {
        let slices = 2 * geom.num_tiles();
        HlIndex {
            cols: geom.cols,
            slices,
            blocks_per_col: geom.bram_blocks_per_col(),
            pins: vec![(0, 0); slices + geom.num_bram_blocks()],
        }
    }

    /// (entry, pin) of `site`; entries run in `HlSite` order.
    fn entry(&self, site: HlSite) -> (usize, u8) {
        match site {
            HlSite::Slice { tile, slice, pin } => {
                let t = tile.row as usize * self.cols + tile.col as usize;
                (2 * t + slice as usize, pin)
            }
            HlSite::Bram { col, block, pin } => (
                self.slices + col as usize * self.blocks_per_col + block as usize,
                pin,
            ),
        }
    }

    fn insert(&mut self, site: HlSite) {
        let (e, pin) = self.entry(site);
        self.pins[e].0 |= 1 << pin;
    }

    /// Rank every site; returns them in rank order.
    fn rank(&mut self) -> Vec<HlSite> {
        let (cols, slices, per_col) = (self.cols, self.slices, self.blocks_per_col);
        let mut sites = Vec::new();
        for (e, (mask, first)) in self.pins.iter_mut().enumerate() {
            *first = sites.len() as u32;
            let mut m = *mask;
            while m != 0 {
                let pin = m.trailing_zeros() as u8;
                m &= m - 1;
                sites.push(if e < slices {
                    HlSite::Slice {
                        tile: Tile::new(e / 2 / cols, e / 2 % cols),
                        slice: (e % 2) as u8,
                        pin,
                    }
                } else {
                    let b = e - slices;
                    HlSite::Bram {
                        col: (b / per_col) as u16,
                        block: (b % per_col) as u16,
                        pin,
                    }
                });
            }
        }
        sites
    }

    /// The rank of `site`, if the network reads it.
    fn rank_of(&self, site: HlSite) -> Option<u32> {
        let (e, pin) = self.entry(site);
        let (mask, first) = self.pins[e];
        ((mask >> pin) & 1 == 1).then(|| first + (mask & ((1 << pin) - 1)).count_ones())
    }
}

/// Slot of the constant 0 in every [`Layout`].
pub(crate) const ZERO_SLOT: u32 = 0;
/// Slot of the constant 1.
pub(crate) const ONE_SLOT: u32 = 1;

/// The slot of constant `v`.
pub(crate) fn const_slot(v: bool) -> u32 {
    if v {
        ONE_SLOT
    } else {
        ZERO_SLOT
    }
}

/// Where each value a compiled network reads lives in the flat value
/// array both engines evaluate over. In order: the constants 0 and 1;
/// each input port, plain then inverted; each half-latch site of
/// [`Compiled::hl_site_list`], plain then inverted; LUT outputs; FF
/// values; 16 output-register bits per BRAM. Each field is the first slot
/// of its region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Layout {
    pub inputs: u32,
    pub half_latches: u32,
    pub luts: u32,
    pub ffs: u32,
    pub brams: u32,
    /// Slots in all.
    pub len: u32,
}

impl Layout {
    fn new(inputs: usize, half_latches: usize, luts: usize, ffs: usize, brams: usize) -> Layout {
        let mut at = 2;
        let mut region = |n: usize| {
            let first = at;
            at += n as u32;
            first
        };
        let inputs = region(2 * inputs);
        let half_latches = region(2 * half_latches);
        let luts = region(luts);
        let ffs = region(ffs);
        let brams = region(16 * brams);
        Layout {
            inputs,
            half_latches,
            luts,
            ffs,
            brams,
            len: at,
        }
    }

    /// The slot holding `s`, if this layout has one; `hl` ranks the
    /// half-latch sites.
    fn slot(&self, hl: &HlIndex, s: Src) -> Option<u32> {
        Some(match s {
            Src::Zero => ZERO_SLOT,
            Src::One => ONE_SLOT,
            Src::Input { port, invert } => {
                let plain = self.inputs + 2 * port as u32;
                if plain >= self.half_latches {
                    return None;
                }
                plain + invert as u32
            }
            Src::HalfLatch { site, invert } => {
                self.half_latches + 2 * hl.rank_of(site)? + invert as u32
            }
            Src::Lut(i) => self.luts + i,
            Src::Ff(i) => self.ffs + i,
            Src::Bram { id, bit } => self.brams + 16 * id + bit as u32,
        })
    }
}

/// The slots of one flip-flop's operands.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FfSlots {
    pub sr: u32,
    pub ce: u32,
    pub d: u32,
}

/// The slots of one BRAM port's operands.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BramSlots {
    pub addr: [u32; 8],
    pub din: [u32; 16],
    pub we: u32,
    pub en: u32,
}

/// The compiled network plus evaluation scratch space.
#[derive(Debug, Clone)]
pub(crate) struct Compiled {
    pub luts: Vec<CLut>,
    pub ffs: Vec<CFf>,
    pub brams: Vec<CBram>,
    /// LUT evaluation order (topological where acyclic).
    pub order: Vec<u32>,
    /// True if combinational cycles were found; the engine then iterates
    /// to a fixpoint.
    pub iterative: bool,
    /// Output port sources (port index → source, invert).
    pub outputs: Vec<(Src, bool)>,
    pub num_inputs: usize,
    /// Every (tile index, flat wire) the wire tracer visited — the routing
    /// resources whose configuration can influence the output cones.
    pub active_wires: Vec<(usize, u16)>,
    /// Distinct half-latch sites the active logic reads, sorted.
    pub hl_site_list: Vec<HlSite>,
    /// Each read site's rank in `hl_site_list`.
    pub hl_index: HlIndex,
    /// Dense site → compiled LUT id (u32::MAX = inactive); index =
    /// tile × 4 + slice × 2 + lut.
    pub lut_site_index: Vec<u32>,
    /// Dense site → compiled FF id; index = ff state index.
    pub ff_site_index: Vec<u32>,

    // ---- every operand above, lowered to its slot of `layout` -----------
    // Kept apart from the nodes so `same_topology` compares sources only;
    // slots never hold a table or an init, so in-place table and init
    // patches leave them valid.
    pub layout: Layout,
    /// Per LUT: its four pins.
    pub lut_pins: Vec<[u32; 4]>,
    /// Per LUT: write data and write enable (constant 0 for static LUTs).
    pub lut_data: Vec<u32>,
    pub lut_we: Vec<u32>,
    pub ff_slots: Vec<FfSlots>,
    pub bram_slots: Vec<BramSlots>,
    /// Per output port: slot and inversion.
    pub out_slots: Vec<(u32, bool)>,
    /// The LUTs in RAM or shift mode, ascending: the ones that write
    /// their tables.
    pub dynamic_luts: Vec<u32>,

    /// Scratch: the scalar engine's value per slot. Its LUT slots carry
    /// over from cycle to cycle, so a cyclic network relaxes from the
    /// previous cycle's values.
    pub vals: Vec<bool>,
}

impl Compiled {
    /// The slot holding `s`, if the layout has one. Every source the
    /// network's own operands read has one; a lane override may name a
    /// half-latch site or input port they never read.
    pub fn slot(&self, s: Src) -> Option<u32> {
        self.layout.slot(&self.hl_index, s)
    }
}

struct Builder<'d> {
    dev: &'d Device,
    luts: Vec<CLut>,
    /// Dense site → compiled-LUT id (u32::MAX = not compiled); index =
    /// tile × 4 + slice × 2 + lut.
    lut_ids: Vec<u32>,
    ffs: Vec<CFf>,
    /// Dense site → compiled-FF id; index = ff state index.
    ff_ids: Vec<u32>,
    brams: Vec<CBram>,
    bram_ids: HashMap<(u16, u16), u32>,
    work: Vec<Work>,
    num_inputs: usize,
    hl_sites: HlIndex,
    /// Bitmap over tile × 96 wires.
    visited_bitmap: Vec<bool>,
    visited_list: Vec<(usize, u16)>,
}

#[derive(Debug, Clone, Copy)]
enum Work {
    Lut(u32),
    Ff(u32),
    Bram(u32),
}

impl<'d> Builder<'d> {
    fn new(dev: &'d Device) -> Self {
        let sites = dev.geom.num_tiles() * 4;
        Builder {
            dev,
            luts: Vec::new(),
            lut_ids: vec![u32::MAX; sites],
            ffs: Vec::new(),
            ff_ids: vec![u32::MAX; sites],
            brams: Vec::new(),
            bram_ids: HashMap::new(),
            work: Vec::new(),
            num_inputs: 0,
            hl_sites: HlIndex::new(&dev.geom),
            visited_bitmap: vec![false; dev.geom.num_tiles() * 96],
            visited_list: Vec::new(),
        }
    }

    /// Node id for a LUT, allocating (and scheduling its build) on first use.
    fn lut_id(&mut self, tile: Tile, slice: u8, lut: u8) -> u32 {
        let key = self.dev.geom.tile_index(tile) * 4 + slice as usize * 2 + lut as usize;
        if self.lut_ids[key] != u32::MAX {
            return self.lut_ids[key];
        }
        let id = self.luts.len() as u32;
        self.luts.push(CLut {
            tile,
            slice,
            lut,
            mode: LutMode::Logic,
            pins: [Src::Zero; 4],
            data: Src::Zero,
            we: Src::Zero,
            table: 0,
        });
        self.lut_ids[key] = id;
        self.work.push(Work::Lut(id));
        id
    }

    fn ff_id(&mut self, tile: Tile, slice: u8, ff: u8) -> u32 {
        let key = self.dev.ff_index(tile, slice as usize, ff as usize);
        if self.ff_ids[key] != u32::MAX {
            return self.ff_ids[key];
        }
        let id = self.ffs.len() as u32;
        self.ffs.push(CFf {
            d: Src::Zero,
            ce: Src::Zero,
            sr: Src::Zero,
            init: false,
            state_idx: self.dev.ff_index(tile, slice as usize, ff as usize),
        });
        self.ff_ids[key] = id;
        self.work.push(Work::Ff(id));
        id
    }

    fn bram_id(&mut self, col: usize, block: usize) -> u32 {
        let key = (col as u16, block as u16);
        if let Some(&id) = self.bram_ids.get(&key) {
            return id;
        }
        let id = self.brams.len() as u32;
        self.brams.push(CBram {
            col: col as u16,
            block: block as u16,
            addr: [Src::Zero; 8],
            din: [Src::Zero; 16],
            we: Src::Zero,
            en: Src::Zero,
            reg_idx: col * self.dev.geom.bram_blocks_per_col() + block,
        });
        self.bram_ids.insert(key, id);
        self.work.push(Work::Bram(id));
        id
    }

    /// Source feeding outgoing wire `flat` (0..96) of `tile`.
    fn out_wire_src(&mut self, tile: Tile, flat: usize, depth: usize) -> Src {
        let vkey = self.dev.geom.tile_index(tile) * 96 + flat;
        if !self.visited_bitmap[vkey] {
            self.visited_bitmap[vkey] = true;
            self.visited_list
                .push((self.dev.geom.tile_index(tile), flat as u16));
        }
        if let Some(v) = self.dev.perm_faults.get(FaultSite::Wire {
            tile,
            wire: flat as u8,
        }) {
            return const_src(v);
        }
        if depth > MAX_TRACE_DEPTH {
            return Src::Zero; // routing loop: modelled as undriven
        }
        let dir = Dir::from_index(flat / WIRES_PER_DIR);
        let idx = flat % WIRES_PER_DIR;
        // Output multiplexer has priority over PIPs.
        if idx < OUTMUX_WIRES_PER_DIR {
            let e = self.dev.config.read_tile_field(
                tile,
                outmux_offset(dir, idx),
                OUTMUX_BITS_PER_WIRE,
            );
            if e & 1 == 1 {
                let sel = ((e >> 1) & 3) as u8;
                return self.slice_out_src(tile, sel / 2, sel % 2);
            }
        }
        let p = self
            .dev
            .config
            .read_tile_field(tile, pip_offset(flat), PIP_BITS_PER_WIRE);
        if p & 1 == 1 {
            match decode_pip(((p >> 1) & 0x7f) as u8) {
                crate::bits::PipSel::Wire(d, i) => {
                    return self.in_wire_src(tile, d, i as usize, depth + 1)
                }
                crate::bits::PipSel::BramOut(bit) => {
                    if bit < 16 {
                        if let Some((bc, blk)) = self.dev.geom.bram_at_home_tile(tile) {
                            let id = self.bram_id(bc, blk);
                            return Src::Bram { id, bit };
                        }
                    }
                    return Src::Zero;
                }
                crate::bits::PipSel::Floating => return Src::Zero,
            }
        }
        Src::Zero
    }

    /// Source feeding the incoming wire (`dir`, `idx`) of `tile`.
    fn in_wire_src(&mut self, tile: Tile, dir: Dir, idx: usize, depth: usize) -> Src {
        match self.dev.geom.neighbor(tile, dir) {
            Some(nb) => self.out_wire_src(nb, dir.opposite() as usize * WIRES_PER_DIR + idx, depth),
            None => {
                // Device boundary. West-edge wires can be bound to input
                // ports through the IOB configuration.
                if dir == Dir::West && tile.col == 0 {
                    let e = self.dev.config.read_iob(Edge::West, tile.row as usize, idx);
                    if e.enabled {
                        self.num_inputs = self.num_inputs.max(e.port as usize + 1);
                        return Src::Input {
                            port: e.port as u16,
                            invert: e.invert,
                        };
                    }
                }
                Src::Zero
            }
        }
    }

    /// Source of slice output `out` (0 = X, 1 = Y) of (`tile`, `slice`).
    fn slice_out_src(&mut self, tile: Tile, slice: u8, out: u8) -> Src {
        if let Some(v) = self
            .dev
            .perm_faults
            .get(FaultSite::SliceOut { tile, slice, out })
        {
            return const_src(v);
        }
        let reg =
            self.dev
                .config
                .read_tile_field(tile, out_sel_offset(slice as usize, out as usize), 1)
                != 0;
        if reg {
            Src::Ff(self.ff_id(tile, slice, out))
        } else {
            self.lut_src(tile, slice, out)
        }
    }

    /// Source for LUT `lut` of (`tile`, `slice`), honouring stuck outputs.
    fn lut_src(&mut self, tile: Tile, slice: u8, lut: u8) -> Src {
        if let Some(v) = self
            .dev
            .perm_faults
            .get(FaultSite::LutOut { tile, slice, lut })
        {
            return const_src(v);
        }
        Src::Lut(self.lut_id(tile, slice, lut))
    }

    /// Resolve a slice input multiplexer.
    fn mux_src(&mut self, tile: Tile, slice: u8, pin: MuxPin) -> Src {
        let v = self
            .dev
            .config
            .read_tile_field(tile, input_mux_offset(slice as usize, pin), 8) as u8;
        match decode_mux(v) {
            MuxSel::Wire(d, i) => self.in_wire_src(tile, d, i as usize, 0),
            MuxSel::Floating => Src::Zero,
            MuxSel::HalfLatch { invert } => {
                let site = HlSite::Slice {
                    tile,
                    slice,
                    pin: pin.index() as u8,
                };
                self.hl_sites.insert(site);
                Src::HalfLatch { site, invert }
            }
        }
    }

    /// Resolve a BRAM interface multiplexer (`pin` numbering per
    /// [`HlSite::Bram`]).
    fn bram_mux_src(&mut self, col: usize, block: usize, off: usize, pin: u8) -> Src {
        let v = self.dev.config.read_bram_if_field(col, block, off, 8) as u8;
        let home = self.dev.geom.bram_home_tile(col, block);
        match decode_mux(v) {
            MuxSel::Wire(d, i) => self.in_wire_src(home, d, i as usize, 0),
            MuxSel::Floating => Src::Zero,
            MuxSel::HalfLatch { invert } => {
                let site = HlSite::Bram {
                    col: col as u16,
                    block: block as u16,
                    pin,
                };
                self.hl_sites.insert(site);
                Src::HalfLatch { site, invert }
            }
        }
    }

    fn build_lut(&mut self, id: u32) {
        let (tile, slice, lut) = {
            let l = &self.luts[id as usize];
            (l.tile, l.slice, l.lut)
        };
        let cfg = &self.dev.config;
        let mode = LutMode::from_bits(cfg.read_tile_field(
            tile,
            lut_mode_offset(slice as usize, lut as usize),
            2,
        ));
        let table =
            cfg.read_tile_field(tile, lut_table_offset(slice as usize, lut as usize, 0), 16) as u16;
        let mut pins = [Src::Zero; 4];
        for (p, pin) in pins.iter_mut().enumerate() {
            *pin = self.mux_src(tile, slice, MuxPin::LutPin { lut, pin: p as u8 });
        }
        let (data, we) = if mode.is_dynamic() {
            let data_pin = if lut == 0 { MuxPin::Bx } else { MuxPin::By };
            let we_pin = if lut == 0 { MuxPin::Srx } else { MuxPin::Sry };
            (
                self.mux_src(tile, slice, data_pin),
                self.mux_src(tile, slice, we_pin),
            )
        } else {
            (Src::Zero, Src::Zero)
        };
        let l = &mut self.luts[id as usize];
        l.mode = mode;
        l.table = table;
        l.pins = pins;
        l.data = data;
        l.we = we;
    }

    fn build_ff(&mut self, id: u32) {
        // Recover location from the state index.
        let state_idx = self.ffs[id as usize].state_idx;
        let ff = (state_idx % 2) as u8;
        let slice = ((state_idx / 2) % 2) as u8;
        let tile = self.dev.geom.tile_at(state_idx / 4);
        let cfg = &self.dev.config;
        let dmux = cfg.read_tile_field(tile, ff_dmux_offset(slice as usize, ff as usize), 1) != 0;
        let init = cfg.read_tile_field(tile, ff_init_offset(slice as usize, ff as usize), 1) != 0;
        let d = if dmux {
            let pin = if ff == 0 { MuxPin::Bx } else { MuxPin::By };
            self.mux_src(tile, slice, pin)
        } else {
            self.lut_src(tile, slice, ff)
        };
        let ce_pin = if ff == 0 { MuxPin::Cex } else { MuxPin::Cey };
        let sr_pin = if ff == 0 { MuxPin::Srx } else { MuxPin::Sry };
        let ce = self.mux_src(tile, slice, ce_pin);
        let sr = self.mux_src(tile, slice, sr_pin);
        let f = &mut self.ffs[id as usize];
        f.d = d;
        f.ce = ce;
        f.sr = sr;
        f.init = init;
    }

    /// Build every scheduled node (the transitive fan-in of whatever was
    /// allocated since the last drain).
    fn drain(&mut self) {
        while let Some(w) = self.work.pop() {
            match w {
                Work::Lut(id) => self.build_lut(id),
                Work::Ff(id) => self.build_ff(id),
                Work::Bram(id) => self.build_bram(id),
            }
        }
    }

    fn build_bram(&mut self, id: u32) {
        let (col, block) = {
            let b = &self.brams[id as usize];
            (b.col as usize, b.block as usize)
        };
        let mut addr = [Src::Zero; 8];
        for (i, a) in addr.iter_mut().enumerate() {
            *a = self.bram_mux_src(col, block, bram_if_addr_off(i), i as u8);
        }
        let mut din = [Src::Zero; 16];
        for (i, dsrc) in din.iter_mut().enumerate() {
            *dsrc = self.bram_mux_src(col, block, bram_if_din_off(i), 8 + i as u8);
        }
        let we = self.bram_mux_src(col, block, BRAM_IF_WE_OFF, 24);
        let en = self.bram_mux_src(col, block, BRAM_IF_EN_OFF, 25);
        let b = &mut self.brams[id as usize];
        b.addr = addr;
        b.din = din;
        b.we = we;
        b.en = en;
    }
}

pub(crate) fn const_src(v: bool) -> Src {
    if v {
        Src::One
    } else {
        Src::Zero
    }
}

/// Compile the device's current configuration into an executable network.
pub(crate) fn compile(dev: &Device) -> Compiled {
    compile_with(dev, &[])
}

/// [`compile`] with `extra` sites as additional roots, the way
/// diagnostics mode seeds every flip-flop. Each extra site and its fan-in
/// is pulled in after the output cones are complete, one site at a time,
/// so the plain compile's nodes keep their ids as a prefix and extending
/// `extra` only appends nodes.
pub(crate) fn compile_with(dev: &Device, extra: &[Site]) -> Compiled {
    let mut b = Builder::new(dev);

    // Bound output ports: east-edge IOB entries sampling outgoing east
    // wires of the last column.
    let mut port_srcs: Vec<(u8, Src, bool)> = Vec::new();
    let last_col = dev.geom.cols - 1;
    for row in 0..dev.geom.rows {
        for wire in 0..WIRES_PER_DIR {
            let e = dev.config.read_iob(Edge::East, row, wire);
            if e.enabled {
                let src = b.out_wire_src(
                    Tile::new(row, last_col),
                    Dir::East as usize * WIRES_PER_DIR + wire,
                    0,
                );
                port_srcs.push((e.port, src, e.invert));
            }
        }
    }

    // Diagnostics mode: every flip-flop on the device clocks, observed or
    // not (readback capture sees them all).
    if dev.compile_all_state {
        for ti in 0..dev.geom.num_tiles() {
            let tile = dev.geom.tile_at(ti);
            for slice in 0..2u8 {
                for ff in 0..2u8 {
                    b.ff_id(tile, slice, ff);
                }
            }
        }
    }

    // Pull in the transitive fan-in, then each extra site's.
    b.drain();
    for &site in extra {
        match site {
            Site::Lut { tile, slice, lut } => {
                b.lut_id(tile, slice, lut);
            }
            Site::Ff { tile, slice, ff } => {
                b.ff_id(tile, slice, ff);
            }
            Site::Bram { col, block } => {
                b.bram_id(col as usize, block as usize);
            }
        }
        b.drain();
    }

    // Assemble the output vector.
    let num_ports = port_srcs.iter().map(|&(p, _, _)| p as usize + 1).max();
    let mut outputs = vec![(Src::Zero, false); num_ports.unwrap_or(0)];
    for (p, src, inv) in port_srcs {
        outputs[p as usize] = (src, inv);
    }

    // Topological order over LUT→LUT combinational edges (Kahn).
    let n = b.luts.len();
    let mut indeg = vec![0u32; n];
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, lut) in b.luts.iter().enumerate() {
        let deps = lut
            .pins
            .iter()
            .chain(std::iter::once(&lut.data))
            .chain(std::iter::once(&lut.we));
        for s in deps {
            if let Src::Lut(j) = *s {
                adj[j as usize].push(i as u32);
                indeg[i] += 1;
            }
        }
    }
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    while let Some(i) = queue.pop() {
        order.push(i);
        for &j in &adj[i as usize] {
            indeg[j as usize] -= 1;
            if indeg[j as usize] == 0 {
                queue.push(j);
            }
        }
    }
    let iterative = order.len() < n;
    if iterative {
        let mut in_order = vec![false; n];
        for &i in &order {
            in_order[i as usize] = true;
        }
        order.extend((0..n as u32).filter(|&i| !in_order[i as usize]));
    }

    // Lower every operand to its slot.
    let mut hl_index = b.hl_sites;
    let hl_site_list = hl_index.rank();
    let (nf, nb) = (b.ffs.len(), b.brams.len());
    let layout = Layout::new(b.num_inputs, hl_site_list.len(), n, nf, nb);
    let slot = |s: Src| {
        layout
            .slot(&hl_index, s)
            .expect("the network reads its own sources")
    };
    Compiled {
        lut_pins: b.luts.iter().map(|l| l.pins.map(slot)).collect(),
        lut_data: b.luts.iter().map(|l| slot(l.data)).collect(),
        lut_we: b.luts.iter().map(|l| slot(l.we)).collect(),
        ff_slots: b
            .ffs
            .iter()
            .map(|f| FfSlots {
                sr: slot(f.sr),
                ce: slot(f.ce),
                d: slot(f.d),
            })
            .collect(),
        bram_slots: b
            .brams
            .iter()
            .map(|m| BramSlots {
                addr: m.addr.map(slot),
                din: m.din.map(slot),
                we: slot(m.we),
                en: slot(m.en),
            })
            .collect(),
        out_slots: outputs.iter().map(|&(s, inv)| (slot(s), inv)).collect(),
        dynamic_luts: (0..n as u32)
            .filter(|&i| b.luts[i as usize].mode.is_dynamic())
            .collect(),
        vals: (0..layout.len).map(|s| s == ONE_SLOT).collect(),
        layout,
        luts: b.luts,
        ffs: b.ffs,
        brams: b.brams,
        order,
        iterative,
        outputs,
        num_inputs: b.num_inputs,
        active_wires: b.visited_list,
        hl_site_list,
        hl_index,
        lut_site_index: b.lut_ids,
        ff_site_index: b.ff_ids,
    }
}
