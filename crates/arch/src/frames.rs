//! Frame-organised configuration memory.
//!
//! The frame is "the smallest granularity of reconfiguration available on
//! the Xilinx parts" (paper §II-A): readback and partial reconfiguration
//! move whole frames. The memory is split into four block types:
//!
//! * **CLB** frames — 48 vertical frames per CLB column; each tile in the
//!   column contributes [`TILE_BITS_PER_FRAME`] bits to each frame.
//! * **IOB** frames — one frame per device row and edge, holding the
//!   input/output port bindings of the boundary wires.
//! * **BRAM interface** frames — port multiplexer configuration per block.
//! * **BRAM content** frames — the 4096 data bits of each block. Content is
//!   *live*: the running design writes it, which is why scrubbing must
//!   treat these frames specially (paper §II-C, §IV).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::bits::{self, BitRole, FRAMES_PER_CLB_COL, TILE_BITS, TILE_BITS_PER_FRAME};
use crate::bitvec::BitVec;
use crate::geometry::{FrameLayout, Geometry, Tile, BRAM_BITS, WIRES_PER_DIR};

/// Block type of a configuration frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockType {
    /// CLB array frames (`major` = CLB column, `minor` = frame 0..48).
    Clb,
    /// IOB frames (`major` = edge: 0 west/inputs, 1 east/outputs;
    /// `minor` = row).
    Iob,
    /// BRAM port-interface frames (`major` = BRAM column, `minor` = block).
    BramInterface,
    /// BRAM content frames (`major` = BRAM column,
    /// `minor` = block × 4 + sub-frame).
    BramContent,
}

/// Address of one configuration frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameAddr {
    pub block: BlockType,
    pub major: u32,
    pub minor: u32,
}

impl FrameAddr {
    pub fn clb(major: usize, minor: usize) -> Self {
        FrameAddr {
            block: BlockType::Clb,
            major: major as u32,
            minor: minor as u32,
        }
    }
}

/// Edge selector for IOB frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// West edge: input ports drive incoming west wires of column 0.
    West = 0,
    /// East edge: output ports sample outgoing east wires of the last column.
    East = 1,
}

/// Bits per IOB entry: `[enable, port0..port7, invert]`.
pub const IOB_ENTRY_BITS: usize = 10;
/// Entries per IOB frame (one per boundary wire of the row).
pub const IOB_ENTRIES_PER_ROW: usize = WIRES_PER_DIR;
/// Bits per IOB frame.
pub const IOB_FRAME_BITS: usize = IOB_ENTRIES_PER_ROW * IOB_ENTRY_BITS;

/// Bits per BRAM interface frame (one block's port muxes).
pub const BRAM_IF_BITS: usize = 256;
/// Offset of address-pin mux `i` (0..8) in a BRAM interface frame.
pub fn bram_if_addr_off(i: usize) -> usize {
    debug_assert!(i < 8);
    i * 8
}
/// Offset of data-in mux `i` (0..16).
pub fn bram_if_din_off(i: usize) -> usize {
    debug_assert!(i < 16);
    64 + i * 8
}
/// Offset of the write-enable mux.
pub const BRAM_IF_WE_OFF: usize = 192;
/// Offset of the port-enable mux.
pub const BRAM_IF_EN_OFF: usize = 200;

/// Content sub-frames per BRAM block.
pub const BRAM_CONTENT_SUBFRAMES: usize = 4;
/// Bits per BRAM content frame.
pub const BRAM_CONTENT_FRAME_BITS: usize = BRAM_BITS / BRAM_CONTENT_SUBFRAMES;

/// A decoded IOB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IobEntry {
    pub enabled: bool,
    pub port: u8,
    pub invert: bool,
}

impl IobEntry {
    pub fn encode(self) -> u64 {
        (self.enabled as u64) | ((self.port as u64) << 1) | ((self.invert as u64) << 9)
    }

    pub fn decode(v: u64) -> Self {
        IobEntry {
            enabled: v & 1 == 1,
            port: ((v >> 1) & 0xff) as u8,
            invert: (v >> 9) & 1 == 1,
        }
    }
}

/// Where a global configuration bit lives, semantically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitLocus {
    /// A CLB tile bit with its decoded role.
    Clb { tile: Tile, role: BitRole },
    /// An IOB entry bit.
    Iob {
        edge: Edge,
        row: u16,
        wire: u8,
        bit: u8,
    },
    /// A BRAM interface bit.
    BramInterface { col: u16, block: u16, off: u16 },
    /// A BRAM content (data) bit.
    BramContent { col: u16, block: u16, bit: u16 },
}

/// What one frame of one memory held at one moment: the memory's
/// identity and the number of writes that frame had taken. Equal stamps
/// of a frame mean equal contents — every writer of [`ConfigMemory`]
/// counts its frames, and a memory takes a fresh identity when it is
/// built and every time it is cloned, so a stamp never matches a copy.
/// Loading a whole image into a memory (a full configuration) keeps the
/// memory's identity and counts a write only in the frames whose bits
/// change, so the stamps of the frames it leaves as they were still hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameStamp {
    memory: u64,
    generation: u64,
}

/// Identities handed to memories as they are built or cloned. Writes
/// never touch it: they count in the memory's own `generations`.
static NEXT_MEMORY: AtomicU64 = AtomicU64::new(0);

/// One frame layout's tile addressing, as three arrays over the tile's
/// bits. A tile's bit at frame position `pos` lives in slot `pos / 30` of
/// its column's frames, at bit `pos % 30` of the tile's 30-bit stretch of
/// that frame.
struct TileTable {
    /// Frame position of each tile offset.
    pos: [u16; TILE_BITS],
    /// How many offsets from each one land on consecutive positions of one
    /// frame slot (at least 1, at most 64): their bits are consecutive in
    /// the memory, so one word read takes them all.
    run: [u8; TILE_BITS],
    /// Tile offset at each frame position.
    off: [u16; TILE_BITS],
}

/// Longest run [`TileTable::run`] records: one word read.
const MAX_RUN: u8 = 64;

impl TileTable {
    /// The table of `layout`, built from its position function. The build
    /// fails to compile unless that function maps the tile's offsets onto
    /// its positions one to one.
    const fn build(layout: FrameLayout) -> TileTable {
        assert!(
            TILE_BITS < u16::MAX as usize,
            "a tile offset must fit a u16 entry"
        );
        let mut t = TileTable {
            pos: [0; TILE_BITS],
            run: [1; TILE_BITS],
            off: [u16::MAX; TILE_BITS],
        };
        let mut off = 0;
        while off < TILE_BITS {
            let pos = match layout {
                FrameLayout::Virtex => bits::v1_pos_of_off(off),
                FrameLayout::Virtex2 => bits::v2_pos_of_off(off),
            };
            assert!(pos < TILE_BITS, "a frame position lies outside the tile");
            assert!(t.off[pos] == u16::MAX, "two offsets share a frame position");
            t.pos[off] = pos as u16;
            t.off[pos] = off as u16;
            off += 1;
        }
        // TILE_BITS offsets on distinct positions below TILE_BITS hit every
        // position once. Runs grow from the end of the tile backwards.
        let mut off = TILE_BITS - 1;
        while off > 0 {
            off -= 1;
            let (here, next) = (t.pos[off] as usize, t.pos[off + 1] as usize);
            if next == here + 1
                && next / TILE_BITS_PER_FRAME == here / TILE_BITS_PER_FRAME
                && t.run[off + 1] < MAX_RUN
            {
                t.run[off] = t.run[off + 1] + 1;
            }
        }
        t
    }
}

/// The tables of both frame layouts, built at compile time: every
/// memory of a layout reads the same one.
static VIRTEX_TILES: TileTable = TileTable::build(FrameLayout::Virtex);
static VIRTEX2_TILES: TileTable = TileTable::build(FrameLayout::Virtex2);

/// The device's configuration memory: a flat bit store with frame and
/// tile-field addressing. Equality compares contents only.
#[derive(Debug)]
pub struct ConfigMemory {
    geom: Geometry,
    bits: BitVec,
    /// This memory's identity (see [`FrameStamp`]).
    identity: u64,
    /// Writes taken by each frame, by dense frame index.
    generations: Vec<u64>,
    clb_frame_bits: usize,
    clb_frames: usize,
    iob_base: usize,
    iob_frames: usize,
    bram_if_base: usize,
    bram_if_frames: usize,
    bram_content_base: usize,
    bram_content_frames: usize,
    total_bits: usize,
}

impl ConfigMemory {
    /// All-zero configuration memory for `geom`.
    pub fn new(geom: Geometry) -> Self {
        let clb_frame_bits = geom.rows * TILE_BITS_PER_FRAME;
        let clb_frames = geom.cols * FRAMES_PER_CLB_COL;
        let iob_base = clb_frames * clb_frame_bits;
        let iob_frames = 2 * geom.rows;
        let bram_if_base = iob_base + iob_frames * IOB_FRAME_BITS;
        let bram_if_frames = geom.num_bram_blocks();
        let bram_content_base = bram_if_base + bram_if_frames * BRAM_IF_BITS;
        let bram_content_frames = geom.num_bram_blocks() * BRAM_CONTENT_SUBFRAMES;
        let total_bits = bram_content_base + bram_content_frames * BRAM_CONTENT_FRAME_BITS;
        let frames = clb_frames + iob_frames + bram_if_frames + bram_content_frames;
        ConfigMemory {
            geom,
            bits: BitVec::zeros(total_bits),
            identity: NEXT_MEMORY.fetch_add(1, Ordering::Relaxed),
            generations: vec![0; frames],
            clb_frame_bits,
            clb_frames,
            iob_base,
            iob_frames,
            bram_if_base,
            bram_if_frames,
            bram_content_base,
            bram_content_frames,
            total_bits,
        }
    }

    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Total configuration bits (the "5.8 million bits" of paper §III-A for
    /// the flight geometry).
    pub fn total_bits(&self) -> usize {
        self.total_bits
    }

    /// Total number of frames.
    pub fn frame_count(&self) -> usize {
        self.generations.len()
    }

    /// The current [`FrameStamp`] of frame `frame_index` (dense order).
    #[inline]
    pub fn frame_stamp(&self, frame_index: usize) -> FrameStamp {
        FrameStamp {
            memory: self.identity,
            generation: self.generations[frame_index],
        }
    }

    /// The current stamps of the frames in `range` (dense order).
    pub(crate) fn frame_stamps(
        &self,
        range: Range<usize>,
    ) -> impl Iterator<Item = FrameStamp> + '_ {
        let memory = self.identity;
        self.generations[range]
            .iter()
            .map(move |&generation| FrameStamp { memory, generation })
    }

    /// Length in bits of a frame of the given block type.
    pub fn frame_bits(&self, block: BlockType) -> usize {
        match block {
            BlockType::Clb => self.clb_frame_bits,
            BlockType::Iob => IOB_FRAME_BITS,
            BlockType::BramInterface => BRAM_IF_BITS,
            BlockType::BramContent => BRAM_CONTENT_FRAME_BITS,
        }
    }

    /// Length in bytes of a frame as moved over the configuration port.
    pub fn frame_bytes(&self, block: BlockType) -> usize {
        self.frame_bits(block).div_ceil(8)
    }

    /// Dense index of a frame (0..frame_count), ordering CLB, IOB,
    /// BRAM-interface, BRAM-content.
    pub fn frame_index(&self, addr: FrameAddr) -> usize {
        match addr.block {
            BlockType::Clb => addr.major as usize * FRAMES_PER_CLB_COL + addr.minor as usize,
            BlockType::Iob => {
                self.clb_frames + addr.major as usize * self.geom.rows + addr.minor as usize
            }
            BlockType::BramInterface => {
                self.clb_frames
                    + self.iob_frames
                    + addr.major as usize * self.geom.bram_blocks_per_col()
                    + addr.minor as usize
            }
            BlockType::BramContent => {
                self.clb_frames
                    + self.iob_frames
                    + self.bram_if_frames
                    + addr.major as usize * self.geom.bram_blocks_per_col() * BRAM_CONTENT_SUBFRAMES
                    + addr.minor as usize
            }
        }
    }

    /// Inverse of [`ConfigMemory::frame_index`].
    pub fn frame_addr(&self, index: usize) -> FrameAddr {
        let mut i = index;
        if i < self.clb_frames {
            return FrameAddr {
                block: BlockType::Clb,
                major: (i / FRAMES_PER_CLB_COL) as u32,
                minor: (i % FRAMES_PER_CLB_COL) as u32,
            };
        }
        i -= self.clb_frames;
        if i < self.iob_frames {
            return FrameAddr {
                block: BlockType::Iob,
                major: (i / self.geom.rows) as u32,
                minor: (i % self.geom.rows) as u32,
            };
        }
        i -= self.iob_frames;
        if i < self.bram_if_frames {
            let per = self.geom.bram_blocks_per_col();
            return FrameAddr {
                block: BlockType::BramInterface,
                major: (i / per) as u32,
                minor: (i % per) as u32,
            };
        }
        i -= self.bram_if_frames;
        assert!(i < self.bram_content_frames, "frame index out of range");
        let per = self.geom.bram_blocks_per_col() * BRAM_CONTENT_SUBFRAMES;
        FrameAddr {
            block: BlockType::BramContent,
            major: (i / per) as u32,
            minor: (i % per) as u32,
        }
    }

    /// Iterate over all frame addresses in dense order.
    pub fn frame_addrs(&self) -> impl Iterator<Item = FrameAddr> + '_ {
        (0..self.frame_count()).map(|i| self.frame_addr(i))
    }

    /// Each block type's dense frame-index range, in dense order, with the
    /// number of frames per major address: frame `i` of a range has major
    /// `(i - start) / per_major`.
    pub(crate) fn block_ranges(&self) -> [(BlockType, Range<usize>, usize); 4] {
        let iob = self.clb_frames;
        let bram_if = iob + self.iob_frames;
        let bram_content = bram_if + self.bram_if_frames;
        let blocks_per_col = self.geom.bram_blocks_per_col();
        [
            (BlockType::Clb, 0..iob, FRAMES_PER_CLB_COL),
            (BlockType::Iob, iob..bram_if, self.geom.rows),
            (
                BlockType::BramInterface,
                bram_if..bram_content,
                blocks_per_col,
            ),
            (
                BlockType::BramContent,
                bram_content..self.frame_count(),
                blocks_per_col * BRAM_CONTENT_SUBFRAMES,
            ),
        ]
    }

    /// Global bit index of the first bit of `addr`.
    pub fn frame_base(&self, addr: FrameAddr) -> usize {
        match addr.block {
            BlockType::Clb => self.frame_index(addr) * self.clb_frame_bits,
            BlockType::Iob => {
                self.iob_base
                    + (addr.major as usize * self.geom.rows + addr.minor as usize) * IOB_FRAME_BITS
            }
            BlockType::BramInterface => {
                self.bram_if_base
                    + (addr.major as usize * self.geom.bram_blocks_per_col() + addr.minor as usize)
                        * BRAM_IF_BITS
            }
            BlockType::BramContent => {
                self.bram_content_base
                    + (addr.major as usize
                        * self.geom.bram_blocks_per_col()
                        * BRAM_CONTENT_SUBFRAMES
                        + addr.minor as usize)
                        * BRAM_CONTENT_FRAME_BITS
            }
        }
    }

    /// Serialize a frame to bytes.
    pub fn read_frame(&self, addr: FrameAddr) -> Vec<u8> {
        let base = self.frame_base(addr);
        self.bits.range_to_bytes(base, self.frame_bits(addr.block))
    }

    /// Overwrite a frame from bytes.
    pub fn write_frame(&mut self, addr: FrameAddr, data: &[u8]) {
        let base = self.frame_base(addr);
        self.bits
            .range_from_bytes(base, self.frame_bits(addr.block), data);
        let frame = self.frame_index(addr);
        self.generations[frame] += 1;
    }

    /// Dense index of the frame holding a global bit, and the bit's
    /// offset within it.
    fn frame_of(&self, global: usize) -> (usize, usize) {
        if global < self.iob_base {
            (global / self.clb_frame_bits, global % self.clb_frame_bits)
        } else if global < self.bram_if_base {
            let g = global - self.iob_base;
            (self.clb_frames + g / IOB_FRAME_BITS, g % IOB_FRAME_BITS)
        } else if global < self.bram_content_base {
            let g = global - self.bram_if_base;
            (
                self.clb_frames + self.iob_frames + g / BRAM_IF_BITS,
                g % BRAM_IF_BITS,
            )
        } else {
            let g = global - self.bram_content_base;
            (
                self.clb_frames
                    + self.iob_frames
                    + self.bram_if_frames
                    + g / BRAM_CONTENT_FRAME_BITS,
                g % BRAM_CONTENT_FRAME_BITS,
            )
        }
    }

    /// Count a write to the frame holding global bit `global` — for
    /// fields that never cross a frame boundary.
    #[inline]
    fn touch(&mut self, global: usize) {
        let (frame, _) = self.frame_of(global);
        self.generations[frame] += 1;
    }

    /// Locate a global bit: which frame, and at what offset within it.
    pub fn locate(&self, global: usize) -> (FrameAddr, usize) {
        assert!(global < self.total_bits);
        let (fi, off) = self.frame_of(global);
        (self.frame_addr(fi), off)
    }

    /// Semantic description of a global configuration bit.
    pub fn describe(&self, global: usize) -> BitLocus {
        let (addr, off) = self.locate(global);
        match addr.block {
            BlockType::Clb => {
                let row = off / TILE_BITS_PER_FRAME;
                let within = off % TILE_BITS_PER_FRAME;
                let pos = addr.minor as usize * TILE_BITS_PER_FRAME + within;
                BitLocus::Clb {
                    tile: Tile::new(row, addr.major as usize),
                    role: bits::bit_role(self.tile_off(pos)),
                }
            }
            BlockType::Iob => BitLocus::Iob {
                edge: if addr.major == 0 {
                    Edge::West
                } else {
                    Edge::East
                },
                row: addr.minor as u16,
                wire: (off / IOB_ENTRY_BITS) as u8,
                bit: (off % IOB_ENTRY_BITS) as u8,
            },
            BlockType::BramInterface => BitLocus::BramInterface {
                col: addr.major as u16,
                block: addr.minor as u16,
                off: off as u16,
            },
            BlockType::BramContent => {
                let block = addr.minor as usize / BRAM_CONTENT_SUBFRAMES;
                let sub = addr.minor as usize % BRAM_CONTENT_SUBFRAMES;
                BitLocus::BramContent {
                    col: addr.major as u16,
                    block: block as u16,
                    bit: (sub * BRAM_CONTENT_FRAME_BITS + off) as u16,
                }
            }
        }
    }

    // ---- raw bit access -------------------------------------------------

    #[inline]
    pub fn get_bit(&self, global: usize) -> bool {
        self.bits.get(global)
    }

    #[inline]
    pub fn set_bit(&mut self, global: usize, v: bool) {
        self.bits.set(global, v);
        self.touch(global);
    }

    /// Flip a bit (the fault-injection primitive), returning its new value.
    #[inline]
    pub fn flip_bit(&mut self, global: usize) -> bool {
        let v = self.bits.flip(global);
        self.touch(global);
        v
    }

    // ---- tile-field access ----------------------------------------------

    /// The tile table of this geometry's frame layout.
    #[inline]
    fn tiles(&self) -> &'static TileTable {
        match self.geom.layout {
            FrameLayout::Virtex => &VIRTEX_TILES,
            FrameLayout::Virtex2 => &VIRTEX2_TILES,
        }
    }

    /// Frame position of a tile-relative offset under this geometry's
    /// frame layout (paper §IV-A): Virtex interleaves in declaration
    /// order; Virtex-II concentrates the truth-table bits into the first
    /// frames of the column.
    #[inline]
    pub fn tile_pos(&self, off: usize) -> usize {
        self.tiles().pos[off] as usize
    }

    /// Inverse of [`ConfigMemory::tile_pos`].
    #[inline]
    pub fn tile_off(&self, pos: usize) -> usize {
        self.tiles().off[pos] as usize
    }

    /// Global bit index of tile-relative offset `off` of `tile`.
    #[inline]
    pub fn tile_bit_index(&self, tile: Tile, off: usize) -> usize {
        self.tile_bit(tile, off).1
    }

    /// Dense frame index and global bit index of tile-relative offset
    /// `off` of `tile`.
    #[inline]
    fn tile_bit(&self, tile: Tile, off: usize) -> (usize, usize) {
        debug_assert!(off < TILE_BITS);
        let pos = self.tile_pos(off);
        let frame = tile.col as usize * FRAMES_PER_CLB_COL + pos / TILE_BITS_PER_FRAME;
        let within = pos % TILE_BITS_PER_FRAME;
        (
            frame,
            frame * self.clb_frame_bits + tile.row as usize * TILE_BITS_PER_FRAME + within,
        )
    }

    /// Read an `n`-bit tile field starting at tile-relative offset `off`,
    /// one word read per run of the layout's table: an 8-bit field is one
    /// read unless it straddles a frame slot.
    pub fn read_tile_field(&self, tile: Tile, off: usize, n: usize) -> u64 {
        debug_assert!(n <= 64 && off + n <= TILE_BITS);
        let runs = &self.tiles().run;
        let mut v = 0u64;
        let mut k = 0;
        while k < n {
            let m = (runs[off + k] as usize).min(n - k);
            v |= self.bits.get_bits(self.tile_bit_index(tile, off + k), m) << k;
            k += m;
        }
        v
    }

    /// Write an `n`-bit tile field. Its bits may span several frames.
    pub fn write_tile_field(&mut self, tile: Tile, off: usize, n: usize, v: u64) {
        debug_assert!(n <= 64 && off + n <= TILE_BITS);
        for k in 0..n {
            let (frame, idx) = self.tile_bit(tile, off + k);
            self.bits.set(idx, (v >> k) & 1 == 1);
            self.generations[frame] += 1;
        }
    }

    // ---- IOB access -------------------------------------------------------

    /// Global bit index of bit `bit` of the IOB entry for (`edge`, `row`,
    /// `wire`).
    pub fn iob_bit_index(&self, edge: Edge, row: usize, wire: usize, bit: usize) -> usize {
        debug_assert!(row < self.geom.rows && wire < IOB_ENTRIES_PER_ROW && bit < IOB_ENTRY_BITS);
        self.iob_base
            + (edge as usize * self.geom.rows + row) * IOB_FRAME_BITS
            + wire * IOB_ENTRY_BITS
            + bit
    }

    pub fn read_iob(&self, edge: Edge, row: usize, wire: usize) -> IobEntry {
        let base = self.iob_bit_index(edge, row, wire, 0);
        IobEntry::decode(self.bits.get_bits(base, IOB_ENTRY_BITS))
    }

    pub fn write_iob(&mut self, edge: Edge, row: usize, wire: usize, entry: IobEntry) {
        let base = self.iob_bit_index(edge, row, wire, 0);
        self.bits.set_bits(base, IOB_ENTRY_BITS, entry.encode());
        self.touch(base);
    }

    // ---- BRAM access ------------------------------------------------------

    /// Global bit index of offset `off` in block (`col`, `block`)'s
    /// interface frame.
    pub fn bram_if_index(&self, col: usize, block: usize, off: usize) -> usize {
        debug_assert!(off < BRAM_IF_BITS);
        self.bram_if_base + (col * self.geom.bram_blocks_per_col() + block) * BRAM_IF_BITS + off
    }

    pub fn read_bram_if_field(&self, col: usize, block: usize, off: usize, n: usize) -> u64 {
        self.bits.get_bits(self.bram_if_index(col, block, off), n)
    }

    pub fn write_bram_if_field(&mut self, col: usize, block: usize, off: usize, n: usize, v: u64) {
        let base = self.bram_if_index(col, block, off);
        self.bits.set_bits(base, n, v);
        self.touch(base);
    }

    /// Global bit index of content bit `bit` of block (`col`, `block`).
    pub fn bram_content_index(&self, col: usize, block: usize, bit: usize) -> usize {
        debug_assert!(bit < BRAM_BITS);
        self.bram_content_base
            + (col * self.geom.bram_blocks_per_col()) * BRAM_BITS
            + block * BRAM_BITS
            + bit
    }

    /// Read a 16-bit BRAM word at `addr` of block (`col`, `block`).
    pub fn read_bram_word(&self, col: usize, block: usize, addr: usize) -> u16 {
        let base = self.bram_content_index(col, block, addr * 16);
        self.bits.get_bits(base, 16) as u16
    }

    /// Write a 16-bit BRAM word.
    pub fn write_bram_word(&mut self, col: usize, block: usize, addr: usize, v: u16) {
        let base = self.bram_content_index(col, block, addr * 16);
        self.bits.set_bits(base, 16, v as u64);
        self.touch(base);
    }

    /// Bits that differ from `other` (used by readback-compare scrubbers and
    /// the test suite). Both memories must share a geometry.
    pub fn diff(&self, other: &ConfigMemory) -> Vec<usize> {
        assert_eq!(self.total_bits, other.total_bits);
        self.bits.diff(&other.bits)
    }

    /// Overwrite this memory with `image`'s contents in place. Only the
    /// frames whose bits change take a write: the memory keeps its
    /// identity, so every other frame keeps its [`FrameStamp`], and a
    /// stamp that still matches still means the same contents. Both
    /// memories must share a geometry.
    pub(crate) fn copy_from(&mut self, image: &ConfigMemory) {
        assert!(self.geom == image.geom, "image geometry does not match");
        // Frames lie back to back in dense order, so one pass walks them
        // beside the next differing bit: a frame that holds it moves, and
        // the search resumes past that frame.
        let mut next = self.bits.next_diff(&image.bits, 0);
        let mut end = 0;
        for (block, range, _) in self.block_ranges() {
            let bits = self.frame_bits(block);
            for frame in range {
                let Some(bit) = next else { break };
                end += bits;
                if bit < end {
                    self.generations[frame] += 1;
                    next = self.bits.next_diff(&image.bits, end);
                }
            }
        }
        self.bits.copy_from(&image.bits);
    }
}

impl Clone for ConfigMemory {
    /// A copy with the same contents and generations under a fresh
    /// identity, so no [`FrameStamp`] of the original matches it.
    fn clone(&self) -> Self {
        ConfigMemory {
            geom: self.geom.clone(),
            bits: self.bits.clone(),
            identity: NEXT_MEMORY.fetch_add(1, Ordering::Relaxed),
            generations: self.generations.clone(),
            ..*self
        }
    }
}

impl PartialEq for ConfigMemory {
    fn eq(&self, other: &Self) -> bool {
        // Every other field derives from the geometry.
        self.geom == other.geom && self.bits == other.bits
    }
}

impl Eq for ConfigMemory {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{input_mux_offset, lut_table_offset, MuxPin};

    #[test]
    fn frame_index_roundtrip() {
        let cm = ConfigMemory::new(Geometry::tiny());
        for i in 0..cm.frame_count() {
            let addr = cm.frame_addr(i);
            assert_eq!(cm.frame_index(addr), i, "frame {i} ↔ {addr:?}");
        }
    }

    #[test]
    fn block_ranges_cover_the_frames_major_by_major() {
        for geom in [
            Geometry::tiny(),
            Geometry::small(),
            Geometry::new("T0", 4, 3, 0),
        ] {
            let cm = ConfigMemory::new(geom);
            let mut next = 0;
            for (block, range, per_major) in cm.block_ranges() {
                assert_eq!(range.start, next, "{block:?}");
                for i in range.clone() {
                    let addr = cm.frame_addr(i);
                    assert_eq!(addr.block, block, "frame {i}");
                    assert_eq!(
                        addr.major as usize,
                        (i - range.start) / per_major,
                        "frame {i}"
                    );
                }
                next = range.end;
            }
            assert_eq!(next, cm.frame_count());
        }
    }

    #[test]
    fn frame_bases_are_disjoint_and_cover() {
        let cm = ConfigMemory::new(Geometry::tiny());
        let mut covered = 0usize;
        let mut spans: Vec<(usize, usize)> = cm
            .frame_addrs()
            .map(|a| (cm.frame_base(a), cm.frame_bits(a.block)))
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert_eq!(w[0].0 + w[0].1, w[1].0, "gap or overlap at {w:?}");
        }
        for (_, len) in &spans {
            covered += len;
        }
        assert_eq!(covered, cm.total_bits());
    }

    #[test]
    fn tile_field_roundtrip_and_frame_mapping() {
        let mut cm = ConfigMemory::new(Geometry::tiny());
        let t = Tile::new(3, 5);
        let off = lut_table_offset(1, 0, 0);
        cm.write_tile_field(t, off, 16, 0xCAFE);
        assert_eq!(cm.read_tile_field(t, off, 16), 0xCAFE);
        // The bits must land in CLB frames of column 5.
        for k in 0..16 {
            let (addr, _) = cm.locate(cm.tile_bit_index(t, off + k));
            assert_eq!(addr.block, BlockType::Clb);
            assert_eq!(addr.major, 5);
        }
        // Distinct tiles never alias.
        cm.write_tile_field(Tile::new(3, 6), off, 16, 0x0000);
        assert_eq!(cm.read_tile_field(t, off, 16), 0xCAFE);
    }

    /// A tiny memory of each frame layout.
    fn memories() -> [ConfigMemory; 2] {
        let tiny = Geometry::tiny();
        [
            ConfigMemory::new(tiny.clone()),
            ConfigMemory::new(tiny.with_virtex2_layout()),
        ]
    }

    /// The position function of `layout`.
    fn pos_of_off(layout: FrameLayout, off: usize) -> usize {
        match layout {
            FrameLayout::Virtex => bits::v1_pos_of_off(off),
            FrameLayout::Virtex2 => bits::v2_pos_of_off(off),
        }
    }

    #[test]
    fn tile_tables_follow_the_position_functions() {
        for cm in memories() {
            let layout = cm.geometry().layout;
            for off in 0..TILE_BITS {
                let pos = pos_of_off(layout, off);
                assert_eq!(cm.tile_pos(off), pos, "{layout:?} offset {off}");
                assert_eq!(cm.tile_off(pos), off, "{layout:?} position {pos}");
            }
        }
    }

    #[test]
    fn tile_runs_stay_in_one_frame_slot_and_end_where_the_positions_do() {
        for cm in memories() {
            let layout = cm.geometry().layout;
            let pos_of = |off| pos_of_off(layout, off);
            for (off, &run) in cm.tiles().run.iter().enumerate() {
                let run = run as usize;
                assert!((1..=MAX_RUN as usize).contains(&run), "{layout:?} {off}");
                assert!(off + run <= TILE_BITS, "{layout:?} {off}");
                let (pos, slot) = (pos_of(off), pos_of(off) / TILE_BITS_PER_FRAME);
                for k in 0..run {
                    let p = pos_of(off + k);
                    assert_eq!(p, pos + k, "{layout:?} run of {off} at {k}");
                    assert_eq!(p / TILE_BITS_PER_FRAME, slot, "{layout:?} run of {off}");
                }
                let end = off + run;
                let continues = end < TILE_BITS
                    && pos_of(end) == pos + run
                    && pos_of(end) / TILE_BITS_PER_FRAME == slot;
                assert!(
                    !continues || run == MAX_RUN as usize,
                    "{layout:?}: the run of {off} stops at {end} but the positions go on"
                );
            }
        }
    }

    #[test]
    fn tile_fields_match_a_bitwise_read() {
        let mut s = 0x7AB1_E5EE_D5A5_u64;
        for mut cm in memories() {
            for i in 0..cm.total_bits() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s & 1 == 1 {
                    cm.set_bit(i, true);
                }
            }
            let layout = cm.geometry().layout;
            let (rows, cols) = (cm.geometry().rows, cm.geometry().cols);
            for (row, col) in [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)] {
                let tile = Tile::new(row, col);
                for off in 0..TILE_BITS {
                    for n in (1..=16).filter(|n| off + n <= TILE_BITS) {
                        let want = (0..n)
                            .filter(|&k| cm.get_bit(cm.tile_bit_index(tile, off + k)))
                            .fold(0u64, |v, k| v | 1 << k);
                        assert_eq!(
                            cm.read_tile_field(tile, off, n),
                            want,
                            "{layout:?} {tile:?} offset {off}, {n} bits"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn frame_readback_roundtrip() {
        let mut cm = ConfigMemory::new(Geometry::tiny());
        let t = Tile::new(2, 2);
        cm.write_tile_field(t, input_mux_offset(0, MuxPin::Bx), 8, 0x5A);
        for addr in cm.frame_addrs().collect::<Vec<_>>() {
            let data = cm.read_frame(addr);
            let mut cm2 = cm.clone();
            cm2.write_frame(addr, &data);
            assert_eq!(cm, cm2);
        }
    }

    #[test]
    fn locate_and_describe_every_region() {
        let cm = ConfigMemory::new(Geometry::tiny());
        // One representative bit per region.
        let clb = cm.tile_bit_index(Tile::new(0, 0), 0);
        assert!(matches!(cm.describe(clb), BitLocus::Clb { .. }));
        let iob = cm.iob_bit_index(Edge::West, 0, 0, 0);
        assert!(matches!(
            cm.describe(iob),
            BitLocus::Iob {
                edge: Edge::West,
                ..
            }
        ));
        let bif = cm.bram_if_index(0, 0, 5);
        assert!(matches!(cm.describe(bif), BitLocus::BramInterface { .. }));
        let bct = cm.bram_content_index(0, 0, 17);
        match cm.describe(bct) {
            BitLocus::BramContent { bit, .. } => assert_eq!(bit, 17),
            other => panic!("wrong locus {other:?}"),
        }
    }

    #[test]
    fn locate_is_consistent_with_frame_base() {
        let cm = ConfigMemory::new(Geometry::tiny());
        let step = 979; // co-prime stride samples the whole space
        let mut i = 0;
        while i < cm.total_bits() {
            let (addr, off) = cm.locate(i);
            assert_eq!(cm.frame_base(addr) + off, i);
            assert!(off < cm.frame_bits(addr.block));
            i += step;
        }
    }

    #[test]
    fn iob_entry_roundtrip() {
        let mut cm = ConfigMemory::new(Geometry::tiny());
        let e = IobEntry {
            enabled: true,
            port: 42,
            invert: true,
        };
        cm.write_iob(Edge::East, 3, 7, e);
        assert_eq!(cm.read_iob(Edge::East, 3, 7), e);
        assert_eq!(cm.read_iob(Edge::West, 3, 7), IobEntry::default());
    }

    #[test]
    fn bram_word_roundtrip() {
        let mut cm = ConfigMemory::new(Geometry::tiny());
        for a in 0..8 {
            cm.write_bram_word(0, 0, a, (a * 0x101) as u16);
        }
        for a in 0..8 {
            assert_eq!(cm.read_bram_word(0, 0, a), (a * 0x101) as u16);
        }
    }

    /// Frames whose stamp `write` moved.
    fn stamps_moved(cm: &mut ConfigMemory, write: impl FnOnce(&mut ConfigMemory)) -> Vec<usize> {
        let before: Vec<FrameStamp> = (0..cm.frame_count()).map(|i| cm.frame_stamp(i)).collect();
        write(cm);
        (0..cm.frame_count())
            .filter(|&i| cm.frame_stamp(i) != before[i])
            .collect()
    }

    #[test]
    fn every_writer_moves_the_stamps_of_exactly_the_frames_it_writes() {
        let mut cm = ConfigMemory::new(Geometry::tiny());
        let frame_of = |cm: &ConfigMemory, g: usize| cm.frame_index(cm.locate(g).0);

        // A LUT table spans sixteen frames; rewriting the same value
        // still counts as a write.
        let (t, table) = (Tile::new(3, 5), lut_table_offset(1, 0, 0));
        let mut want: Vec<usize> = (0..16)
            .map(|k| frame_of(&cm, cm.tile_bit_index(t, table + k)))
            .collect();
        want.sort();
        want.dedup();
        assert!(want.len() > 1);
        for _ in 0..2 {
            let moved = stamps_moved(&mut cm, |cm| cm.write_tile_field(t, table, 16, 0xCAFE));
            assert_eq!(moved, want);
        }

        let g = cm.tile_bit_index(Tile::new(1, 2), 100);
        let want = [frame_of(&cm, g)];
        assert_eq!(stamps_moved(&mut cm, |cm| cm.set_bit(g, true)), want);
        let moved = stamps_moved(&mut cm, |cm| {
            cm.flip_bit(g);
        });
        assert_eq!(moved, want);

        let e = IobEntry {
            enabled: true,
            port: 3,
            invert: false,
        };
        let want = [frame_of(&cm, cm.iob_bit_index(Edge::East, 3, 7, 0))];
        assert_eq!(
            stamps_moved(&mut cm, |cm| cm.write_iob(Edge::East, 3, 7, e)),
            want
        );

        let want = [frame_of(&cm, cm.bram_if_index(0, 1, BRAM_IF_WE_OFF))];
        let moved = stamps_moved(&mut cm, |cm| {
            cm.write_bram_if_field(0, 1, BRAM_IF_WE_OFF, 8, 0x5A)
        });
        assert_eq!(moved, want);

        // Word 130 lies in the block's third content sub-frame.
        let want = [frame_of(&cm, cm.bram_content_index(0, 1, 130 * 16))];
        assert_eq!(
            stamps_moved(&mut cm, |cm| cm.write_bram_word(0, 1, 130, 7)),
            want
        );

        let addr = cm.frame_addr(9);
        let data = cm.read_frame(addr);
        assert_eq!(stamps_moved(&mut cm, |cm| cm.write_frame(addr, &data)), [9]);

        // A clone holds the same contents under stamps of its own.
        let copy = cm.clone();
        assert_eq!(copy, cm);
        assert!((0..cm.frame_count()).all(|i| copy.frame_stamp(i) != cm.frame_stamp(i)));
    }

    #[test]
    fn copy_from_moves_the_stamps_of_exactly_the_frames_that_change() {
        let mut s = 0xC0B1_F00D_u64;
        let mut next = move |n: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as usize % n
        };
        // Two rows make 60-bit CLB frames, so one word can span three.
        for geom in [
            Geometry::tiny(),
            Geometry::small(),
            Geometry::new("T2", 2, 3, 0),
        ] {
            let mut cm = ConfigMemory::new(geom.clone());
            let identity = cm.frame_stamp(0).memory;
            // Random flips, then the first bit of every frame, then the
            // last bit of every frame.
            for case in ["0", "1", "2", "40", "5000", "first", "last"] {
                let mut image = cm.clone();
                for _ in 0..case.parse().unwrap_or(0) {
                    image.flip_bit(next(image.total_bits()));
                }
                for addr in cm.frame_addrs() {
                    let (base, bits) = (cm.frame_base(addr), cm.frame_bits(addr.block));
                    match case {
                        "first" => image.flip_bit(base),
                        "last" => image.flip_bit(base + bits - 1),
                        _ => false,
                    };
                }
                let want: Vec<usize> = cm
                    .frame_addrs()
                    .enumerate()
                    .filter(|&(_, addr)| cm.read_frame(addr) != image.read_frame(addr))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(
                    stamps_moved(&mut cm, |cm| cm.copy_from(&image)),
                    want,
                    "{}, case {case}",
                    geom.name
                );
                assert_eq!(cm, image);
                assert_eq!(cm.frame_stamp(0).memory, identity);
            }
        }
    }

    #[test]
    fn flip_bit_shows_in_frame_diff() {
        let mut cm = ConfigMemory::new(Geometry::small());
        let golden = cm.clone();
        let target = cm.tile_bit_index(Tile::new(4, 4), 100);
        cm.flip_bit(target);
        assert_eq!(cm.diff(&golden), vec![target]);
        let (addr, off) = cm.locate(target);
        let dirty = cm.read_frame(addr);
        let clean = golden.read_frame(addr);
        assert_ne!(dirty, clean);
        assert_eq!(dirty[off / 8] ^ clean[off / 8], 1 << (off % 8));
    }
}
