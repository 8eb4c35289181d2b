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
//! Every configuration read happens in one [`Tracer`], through three
//! helpers — tile field, BRAM interface field, IOB entry — which also
//! hand each bit read to the node set's recorder when one is attached.
//! The tracer resolves a [`Root`] (a node operand or an output entry) to
//! its source, and is generic over its [`NodeSet`]. The compiler's node
//! set allocates each site it reaches and builds the node by resolving
//! that node's roots; the delta map's looks sites up in a compiled network
//! and, while building, records which bits each root reads. So the
//! recorded read set is the compiler's by construction. Only four kinds
//! of bits are read outside any root — LUT tables and modes, flip-flop
//! inits, and the east IOB entries that bind output ports — and
//! `DeltaMap::classify` decides each from the bit's role (see
//! [`crate::delta`]).
//!
//! Last, every operand is lowered from its [`Src`] to a slot of one flat
//! value array ([`Layout`]), so both engines gather operands by index.
//! `Src` stays the currency of the compiler, the delta map and the
//! reachability pass; the engines read slots only.

use crate::bits::{
    decode_mux, decode_pip, ff_dmux_offset, ff_init_offset, input_mux_offset, lut_mode_offset,
    lut_table_offset, out_sel_offset, outmux_offset, pip_offset, LutMode, MuxPin, MuxSel, PipSel,
    MUX_FIELD_BITS, OUTMUX_BITS_PER_WIRE, PIP_BITS_PER_WIRE,
};
use crate::device::Device;
use crate::frames::{
    bram_if_addr_off, bram_if_din_off, Edge, IobEntry, BRAM_IF_EN_OFF, BRAM_IF_WE_OFF,
    IOB_ENTRY_BITS,
};
use crate::geometry::{Dir, Geometry, Tile, OUTMUX_WIRES_PER_DIR, WIRES_PER_DIR};
use crate::halflatch::HlSite;
use crate::permfault::FaultSite;

/// Maximum PIP chain length traced before declaring a routing loop.
const MAX_TRACE_DEPTH: usize = 64;

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

impl Site {
    /// Index into the dense site → node id maps: tile × 4 + slice × 2 +
    /// LUT or flip-flop (for a flip-flop, its state index), or column ×
    /// blocks per column + block (its output-register index).
    fn key(self, geom: &Geometry) -> usize {
        match self {
            Site::Lut {
                tile,
                slice,
                lut: i,
            }
            | Site::Ff { tile, slice, ff: i } => {
                (geom.tile_index(tile) * 2 + slice as usize) * 2 + i as usize
            }
            Site::Bram { col, block } => col as usize * geom.bram_blocks_per_col() + block as usize,
        }
    }
}

/// A network attachment point whose source the compiler derives from
/// configuration bits: a node operand or an output entry — the unit of
/// tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Root {
    LutPin { lut: u32, pin: u8 },
    LutData { lut: u32 },
    LutWe { lut: u32 },
    FfD { ff: u32 },
    FfCe { ff: u32 },
    FfSr { ff: u32 },
    BramAddr { bram: u32, i: u8 },
    BramDin { bram: u32, i: u8 },
    BramWe { bram: u32 },
    BramEn { bram: u32 },
    OutEntry { row: u16, wire: u8 },
}

/// Trace failure: the path reaches a site the node set lacks.
#[derive(Debug)]
pub(crate) struct Incompat;

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
    /// Dense site → compiled BRAM id; index = output-register index.
    pub bram_site_index: Vec<u32>,

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
    /// previous cycle's values. Its half-latch slots hold the device's
    /// latches: the compile writes them, and `Device::upset_half_latch`
    /// and `Device::recover_half_latch` patch them.
    pub vals: Vec<bool>,
}

impl Compiled {
    /// The slot holding `s`, if the layout has one. Every source the
    /// network's own operands read has one; a lane override may name a
    /// half-latch site or input port they never read.
    pub fn slot(&self, s: Src) -> Option<u32> {
        self.layout.slot(&self.hl_index, s)
    }

    /// Write half-latch `site`'s value `v` into its slot pair, if the
    /// network reads the site.
    pub fn set_half_latch(&mut self, site: HlSite, v: bool) {
        if let Some(rank) = self.hl_index.rank_of(site) {
            let at = (self.layout.half_latches + 2 * rank) as usize;
            self.vals[at] = v;
            self.vals[at + 1] = !v;
        }
    }

    /// Reset the LUT slots to what a fresh compile holds: the start a
    /// cyclic network relaxes from on its first cycle.
    pub fn reset_lut_slots(&mut self) {
        let l = self.layout;
        self.vals[l.luts as usize..l.ffs as usize].fill(false);
    }

    /// The id of the node at `site`, if the network holds one.
    pub fn node(&self, geom: &Geometry, site: Site) -> Option<u32> {
        let ids = match site {
            Site::Lut { .. } => &self.lut_site_index,
            Site::Ff { .. } => &self.ff_site_index,
            Site::Bram { .. } => &self.bram_site_index,
        };
        let id = ids[site.key(geom)];
        (id != u32::MAX).then_some(id)
    }
}

/// The nodes a [`Tracer`] resolves sites to, and where the configuration
/// bits it reads go.
pub(crate) trait NodeSet {
    /// The LUT, flip-flop and BRAM nodes, by id.
    fn nodes(&self) -> (&[CLut], &[CFf], &[CBram]);
    /// The id of the node at `site`; `None` for a site the set notes as
    /// missing, which the trace reads as floating.
    fn node(&mut self, geom: &Geometry, site: Site) -> Result<Option<u32>, Incompat>;
    /// The recorder, if one is attached: the (bit, root) list each
    /// configuration bit read joins, and the root being traced.
    fn recorder(&mut self) -> Option<(&mut Vec<(usize, Root)>, Root)> {
        None
    }
    /// The trace passes outgoing wire `flat` of tile index `tile`.
    fn visit(&mut self, _tile: usize, _flat: usize) {}
    /// The trace reaches input port `port`.
    fn input(&mut self, _port: u8) {}
    /// The trace reaches half-latch `site`.
    fn half_latch(&mut self, _site: HlSite) {}
}

/// Resolves roots against configuration memory: output multiplexers
/// (which take priority over PIPs), PIP chains cut at
/// [`MAX_TRACE_DEPTH`], input multiplexers and stuck-at overlays, back to
/// nodes, half-latches, input ports or constants.
pub(crate) struct Tracer<'d, N> {
    pub dev: &'d Device,
    pub nodes: N,
}

impl<N: NodeSet> Tracer<'_, N> {
    fn tile_field(&mut self, tile: Tile, off: usize, n: usize) -> u64 {
        let cfg = &self.dev.config;
        if let Some((deps, root)) = self.nodes.recorder() {
            deps.extend((off..off + n).map(|o| (cfg.tile_bit_index(tile, o), root)));
        }
        cfg.read_tile_field(tile, off, n)
    }

    fn bram_if_field(&mut self, col: usize, block: usize, off: usize, n: usize) -> u64 {
        let cfg = &self.dev.config;
        if let Some((deps, root)) = self.nodes.recorder() {
            deps.extend((off..off + n).map(|o| (cfg.bram_if_index(col, block, o), root)));
        }
        cfg.read_bram_if_field(col, block, off, n)
    }

    fn iob_entry(&mut self, edge: Edge, row: usize, wire: usize) -> IobEntry {
        let cfg = &self.dev.config;
        if let Some((deps, root)) = self.nodes.recorder() {
            deps.extend((0..IOB_ENTRY_BITS).map(|b| (cfg.iob_bit_index(edge, row, wire, b), root)));
        }
        cfg.read_iob(edge, row, wire)
    }

    /// The node at `site` as the source `src(id)`.
    fn node(&mut self, site: Site, src: impl FnOnce(u32) -> Src) -> Result<Src, Incompat> {
        Ok(self
            .nodes
            .node(&self.dev.geom, site)?
            .map_or(Src::Zero, src))
    }

    /// The source `root` reads under the current configuration.
    pub fn root_src(&mut self, root: Root) -> Result<Src, Incompat> {
        let (luts, ffs, brams) = self.nodes.nodes();
        let dev = self.dev;
        let lut = |id: u32| {
            let l = &luts[id as usize];
            (l.tile, l.slice, l.lut as usize)
        };
        let ff = |id: u32| {
            let (tile, slice, ff) = dev.ff_site(ffs[id as usize].state_idx);
            (tile, slice, ff as usize)
        };
        let bram = |id: u32| {
            let b = &brams[id as usize];
            (b.col as usize, b.block as usize)
        };
        let (tile, slice, pin) = match root {
            Root::LutPin { lut: id, pin } => {
                let (tile, slice, l) = lut(id);
                (tile, slice, MuxPin::LutPin { lut: l as u8, pin })
            }
            Root::LutData { lut: id } => {
                let (tile, slice, l) = lut(id);
                (tile, slice, [MuxPin::Bx, MuxPin::By][l])
            }
            Root::LutWe { lut: id } => {
                let (tile, slice, l) = lut(id);
                (tile, slice, [MuxPin::Srx, MuxPin::Sry][l])
            }
            Root::FfD { ff: id } => {
                let (tile, slice, f) = ff(id);
                if self.tile_field(tile, ff_dmux_offset(slice as usize, f), 1) == 0 {
                    return self.lut_src(tile, slice, f as u8);
                }
                (tile, slice, [MuxPin::Bx, MuxPin::By][f])
            }
            Root::FfCe { ff: id } => {
                let (tile, slice, f) = ff(id);
                (tile, slice, [MuxPin::Cex, MuxPin::Cey][f])
            }
            Root::FfSr { ff: id } => {
                let (tile, slice, f) = ff(id);
                (tile, slice, [MuxPin::Srx, MuxPin::Sry][f])
            }
            // Half-latch pins of a BRAM port: 0..8 address, 8..24 data
            // in, 24 write enable, 25 enable (see `HlSite::Bram`).
            Root::BramAddr { bram: id, i } => {
                let (col, block) = bram(id);
                return self.bram_mux_src(col, block, bram_if_addr_off(i as usize), i);
            }
            Root::BramDin { bram: id, i } => {
                let (col, block) = bram(id);
                return self.bram_mux_src(col, block, bram_if_din_off(i as usize), 8 + i);
            }
            Root::BramWe { bram: id } => {
                let (col, block) = bram(id);
                return self.bram_mux_src(col, block, BRAM_IF_WE_OFF, 24);
            }
            Root::BramEn { bram: id } => {
                let (col, block) = bram(id);
                return self.bram_mux_src(col, block, BRAM_IF_EN_OFF, 25);
            }
            Root::OutEntry { row, wire } => {
                let tile = Tile::new(row as usize, dev.geom.cols - 1);
                return self.out_wire_src(
                    tile,
                    Dir::East as usize * WIRES_PER_DIR + wire as usize,
                    0,
                );
            }
        };
        self.mux_src(tile, slice, pin)
    }

    /// Source feeding outgoing wire `flat` (0..96) of `tile`.
    fn out_wire_src(&mut self, tile: Tile, flat: usize, depth: usize) -> Result<Src, Incompat> {
        self.nodes.visit(self.dev.geom.tile_index(tile), flat);
        if let Some(v) = self.dev.perm_faults.get(FaultSite::Wire {
            tile,
            wire: flat as u8,
        }) {
            return Ok(const_src(v));
        }
        if depth > MAX_TRACE_DEPTH {
            return Ok(Src::Zero); // routing loop: modelled as undriven
        }
        let dir = Dir::from_index(flat / WIRES_PER_DIR);
        let idx = flat % WIRES_PER_DIR;
        // Output multiplexer has priority over PIPs.
        if idx < OUTMUX_WIRES_PER_DIR {
            let e = self.tile_field(tile, outmux_offset(dir, idx), OUTMUX_BITS_PER_WIRE);
            if e & 1 == 1 {
                let sel = ((e >> 1) & 3) as u8;
                return self.slice_out_src(tile, sel / 2, sel % 2);
            }
        }
        let p = self.tile_field(tile, pip_offset(flat), PIP_BITS_PER_WIRE);
        if p & 1 == 0 {
            return Ok(Src::Zero);
        }
        match decode_pip(((p >> 1) & 0x7f) as u8) {
            PipSel::Wire(d, i) => self.in_wire_src(tile, d, i as usize, depth + 1),
            PipSel::BramOut(bit) if bit < 16 => match self.dev.geom.bram_at_home_tile(tile) {
                Some((col, block)) => {
                    let site = Site::Bram {
                        col: col as u16,
                        block: block as u16,
                    };
                    self.node(site, |id| Src::Bram { id, bit })
                }
                None => Ok(Src::Zero),
            },
            PipSel::BramOut(_) | PipSel::Floating => Ok(Src::Zero),
        }
    }

    /// Source feeding the incoming wire (`dir`, `idx`) of `tile`.
    fn in_wire_src(
        &mut self,
        tile: Tile,
        dir: Dir,
        idx: usize,
        depth: usize,
    ) -> Result<Src, Incompat> {
        if let Some(nb) = self.dev.geom.neighbor(tile, dir) {
            return self.out_wire_src(nb, dir.opposite() as usize * WIRES_PER_DIR + idx, depth);
        }
        // Device boundary. West-edge wires can be bound to input ports
        // through the IOB configuration.
        if dir == Dir::West && tile.col == 0 {
            let e = self.iob_entry(Edge::West, tile.row as usize, idx);
            if e.enabled {
                self.nodes.input(e.port);
                return Ok(Src::Input {
                    port: e.port as u16,
                    invert: e.invert,
                });
            }
        }
        Ok(Src::Zero)
    }

    /// Source of slice output `out` (0 = X, 1 = Y) of (`tile`, `slice`).
    fn slice_out_src(&mut self, tile: Tile, slice: u8, out: u8) -> Result<Src, Incompat> {
        if let Some(v) = self
            .dev
            .perm_faults
            .get(FaultSite::SliceOut { tile, slice, out })
        {
            return Ok(const_src(v));
        }
        if self.tile_field(tile, out_sel_offset(slice as usize, out as usize), 1) != 0 {
            let site = Site::Ff {
                tile,
                slice,
                ff: out,
            };
            self.node(site, Src::Ff)
        } else {
            self.lut_src(tile, slice, out)
        }
    }

    /// Source for LUT `lut` of (`tile`, `slice`), honouring stuck outputs.
    fn lut_src(&mut self, tile: Tile, slice: u8, lut: u8) -> Result<Src, Incompat> {
        if let Some(v) = self
            .dev
            .perm_faults
            .get(FaultSite::LutOut { tile, slice, lut })
        {
            return Ok(const_src(v));
        }
        self.node(Site::Lut { tile, slice, lut }, Src::Lut)
    }

    /// Resolve a slice input multiplexer.
    fn mux_src(&mut self, tile: Tile, slice: u8, pin: MuxPin) -> Result<Src, Incompat> {
        let sel = self.tile_field(tile, input_mux_offset(slice as usize, pin), MUX_FIELD_BITS);
        let pin = pin.index() as u8;
        self.mux_sel_src(tile, sel as u8, HlSite::Slice { tile, slice, pin })
    }

    /// Resolve a BRAM interface multiplexer (`pin` numbering per
    /// [`HlSite::Bram`]).
    fn bram_mux_src(
        &mut self,
        col: usize,
        block: usize,
        off: usize,
        pin: u8,
    ) -> Result<Src, Incompat> {
        let sel = self.bram_if_field(col, block, off, MUX_FIELD_BITS);
        let home = self.dev.geom.bram_home_tile(col, block);
        let (col, block) = (col as u16, block as u16);
        self.mux_sel_src(home, sel as u8, HlSite::Bram { col, block, pin })
    }

    /// The source multiplexer select `sel` picks: an incoming wire of
    /// `tile`, the half-latch at `site`, or nothing.
    fn mux_sel_src(&mut self, tile: Tile, sel: u8, site: HlSite) -> Result<Src, Incompat> {
        match decode_mux(sel) {
            MuxSel::Wire(d, i) => self.in_wire_src(tile, d, i as usize, 0),
            MuxSel::Floating => Ok(Src::Zero),
            MuxSel::HalfLatch { invert } => {
                self.nodes.half_latch(site);
                Ok(Src::HalfLatch { site, invert })
            }
        }
    }
}

/// The compiler's node set: a node for every site the trace reaches,
/// allocated on first use and scheduled to be built.
struct Builder {
    luts: Vec<CLut>,
    ffs: Vec<CFf>,
    brams: Vec<CBram>,
    /// Dense site → node id (u32::MAX = not compiled), indexed as
    /// [`Compiled::lut_site_index`] and its siblings.
    lut_ids: Vec<u32>,
    ff_ids: Vec<u32>,
    bram_ids: Vec<u32>,
    /// Allocated nodes not built yet.
    work: Vec<(Site, u32)>,
    num_inputs: usize,
    hl_sites: HlIndex,
    /// Bitmap over tile × 96 wires.
    visited_bitmap: Vec<bool>,
    visited_list: Vec<(usize, u16)>,
}

impl Builder {
    fn new(geom: &Geometry) -> Self {
        Builder {
            luts: Vec::new(),
            ffs: Vec::new(),
            brams: Vec::new(),
            lut_ids: vec![u32::MAX; geom.num_tiles() * 4],
            ff_ids: vec![u32::MAX; geom.num_tiles() * 4],
            bram_ids: vec![u32::MAX; geom.num_bram_blocks()],
            work: Vec::new(),
            num_inputs: 0,
            hl_sites: HlIndex::new(geom),
            visited_bitmap: vec![false; geom.num_tiles() * 96],
            visited_list: Vec::new(),
        }
    }

    /// The node id of `site`, allocating (and scheduling its build) on
    /// first use.
    fn alloc(&mut self, geom: &Geometry, site: Site) -> u32 {
        let key = site.key(geom);
        let id = match site {
            Site::Lut { .. } => &mut self.lut_ids[key],
            Site::Ff { .. } => &mut self.ff_ids[key],
            Site::Bram { .. } => &mut self.bram_ids[key],
        };
        if *id == u32::MAX {
            let zero = Src::Zero;
            *id = match site {
                Site::Lut { tile, slice, lut } => {
                    self.luts.push(CLut {
                        tile,
                        slice,
                        lut,
                        mode: LutMode::Logic,
                        pins: [zero; 4],
                        data: zero,
                        we: zero,
                        table: 0,
                    });
                    self.luts.len() - 1
                }
                Site::Ff { .. } => {
                    self.ffs.push(CFf {
                        d: zero,
                        ce: zero,
                        sr: zero,
                        init: false,
                        state_idx: key,
                    });
                    self.ffs.len() - 1
                }
                Site::Bram { col, block } => {
                    self.brams.push(CBram {
                        col,
                        block,
                        addr: [zero; 8],
                        din: [zero; 16],
                        we: zero,
                        en: zero,
                        reg_idx: key,
                    });
                    self.brams.len() - 1
                }
            } as u32;
            self.work.push((site, *id));
        }
        *id
    }
}

impl NodeSet for Builder {
    fn nodes(&self) -> (&[CLut], &[CFf], &[CBram]) {
        (&self.luts, &self.ffs, &self.brams)
    }

    fn node(&mut self, geom: &Geometry, site: Site) -> Result<Option<u32>, Incompat> {
        Ok(Some(self.alloc(geom, site)))
    }

    fn visit(&mut self, tile: usize, flat: usize) {
        let vkey = tile * 96 + flat;
        if !self.visited_bitmap[vkey] {
            self.visited_bitmap[vkey] = true;
            self.visited_list.push((tile, flat as u16));
        }
    }

    fn input(&mut self, port: u8) {
        self.num_inputs = self.num_inputs.max(port as usize + 1);
    }

    fn half_latch(&mut self, site: HlSite) {
        self.hl_sites.insert(site);
    }
}

impl Tracer<'_, Builder> {
    /// `root`'s source; the compiler allocates every site, so its trace
    /// never fails.
    fn resolve(&mut self, root: Root) -> Src {
        self.root_src(root)
            .expect("the compiler allocates every site")
    }

    /// Build every scheduled node (the transitive fan-in of whatever was
    /// allocated since the last drain): resolve its roots, and read what
    /// no root traces — a LUT's mode and table, a flip-flop's init.
    fn drain(&mut self) {
        while let Some((site, id)) = self.nodes.work.pop() {
            match site {
                Site::Lut { tile, slice, lut } => {
                    let (s, l) = (slice as usize, lut as usize);
                    let mode = LutMode::from_bits(self.tile_field(tile, lut_mode_offset(s, l), 2));
                    let table = self.tile_field(tile, lut_table_offset(s, l, 0), 16) as u16;
                    let pins = [0, 1, 2, 3].map(|pin| self.resolve(Root::LutPin { lut: id, pin }));
                    let (data, we) = if mode.is_dynamic() {
                        let data = self.resolve(Root::LutData { lut: id });
                        (data, self.resolve(Root::LutWe { lut: id }))
                    } else {
                        (Src::Zero, Src::Zero)
                    };
                    let n = &mut self.nodes.luts[id as usize];
                    (n.mode, n.table, n.pins, n.data, n.we) = (mode, table, pins, data, we);
                }
                Site::Ff { tile, slice, ff } => {
                    let init =
                        self.tile_field(tile, ff_init_offset(slice as usize, ff as usize), 1);
                    let d = self.resolve(Root::FfD { ff: id });
                    let ce = self.resolve(Root::FfCe { ff: id });
                    let sr = self.resolve(Root::FfSr { ff: id });
                    let n = &mut self.nodes.ffs[id as usize];
                    (n.d, n.ce, n.sr, n.init) = (d, ce, sr, init != 0);
                }
                Site::Bram { .. } => {
                    let addr = std::array::from_fn(|i| {
                        let i = i as u8;
                        self.resolve(Root::BramAddr { bram: id, i })
                    });
                    let din = std::array::from_fn(|i| {
                        let i = i as u8;
                        self.resolve(Root::BramDin { bram: id, i })
                    });
                    let we = self.resolve(Root::BramWe { bram: id });
                    let en = self.resolve(Root::BramEn { bram: id });
                    let n = &mut self.nodes.brams[id as usize];
                    (n.addr, n.din, n.we, n.en) = (addr, din, we, en);
                }
            }
        }
    }
}

fn const_src(v: bool) -> Src {
    if v {
        Src::One
    } else {
        Src::Zero
    }
}

/// The output-port vector of the enabled east entries `ports`, in scan
/// order, each with the source of its wire: each entry binds its port,
/// and a later entry overrides an earlier one for the same port.
pub(crate) fn port_vector(ports: &[(IobEntry, Src)]) -> Vec<(Src, bool)> {
    let num_ports = ports.iter().map(|(e, _)| e.port as usize + 1).max();
    let mut outputs = vec![(Src::Zero, false); num_ports.unwrap_or(0)];
    for &(e, src) in ports {
        outputs[e.port as usize] = (src, e.invert);
    }
    outputs
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
    let geom = &dev.geom;
    let mut t = Tracer {
        dev,
        nodes: Builder::new(geom),
    };

    // Bound output ports: east-edge IOB entries sampling outgoing east
    // wires of the last column.
    let mut ports = Vec::new();
    for row in 0..geom.rows {
        for wire in 0..WIRES_PER_DIR {
            let e = t.iob_entry(Edge::East, row, wire);
            if e.enabled {
                let (row, wire) = (row as u16, wire as u8);
                ports.push((e, t.resolve(Root::OutEntry { row, wire })));
            }
        }
    }

    // Diagnostics mode: every flip-flop on the device clocks, observed or
    // not (readback capture sees them all).
    if dev.compile_all_state {
        for idx in 0..geom.num_tiles() * 4 {
            let (tile, slice, ff) = dev.ff_site(idx);
            t.nodes.alloc(geom, Site::Ff { tile, slice, ff });
        }
    }

    // Pull in the transitive fan-in, then each extra site's.
    t.drain();
    for &site in extra {
        t.nodes.alloc(geom, site);
        t.drain();
    }
    let b = t.nodes;
    let outputs = port_vector(&ports);

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
    let mut vals: Vec<bool> = (0..layout.len).map(|s| s == ONE_SLOT).collect();
    for (k, &site) in hl_site_list.iter().enumerate() {
        let v = dev.half_latches.value(site);
        let at = layout.half_latches as usize + 2 * k;
        (vals[at], vals[at + 1]) = (v, !v);
    }
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
        vals,
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
        bram_site_index: b.bram_ids,
    }
}
