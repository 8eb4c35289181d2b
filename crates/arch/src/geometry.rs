//! Device geometry: the island-style CLB array, BRAM columns and IOB edges.
//!
//! The model follows the Virtex organisation the paper relies on: a
//! rectangular array of CLBs (two slices each, two 4-input LUTs and two
//! flip-flops per slice), columns of Block SelectRAM, and configuration
//! memory addressed in vertical *frames* — the smallest unit of
//! reconfiguration (paper §II-A).

/// Number of slices per CLB tile (Virtex: 2).
pub const SLICES_PER_TILE: usize = 2;
/// LUTs (and flip-flops) per slice (Virtex: 2 — F and G).
pub const LUTS_PER_SLICE: usize = 2;
/// Single-length wires leaving a tile in each direction (paper §II-B: "Each
/// CLB has 96 wires, with 24 in each of four directions").
pub const WIRES_PER_DIR: usize = 24;
/// Directions: N, E, S, W.
pub const NUM_DIRS: usize = 4;
/// Total outgoing single-length wires per tile.
pub const WIRES_PER_TILE: usize = WIRES_PER_DIR * NUM_DIRS;
/// Wires per direction reachable from the tile's output multiplexer
/// (paper §II-B: "Twenty of the wires are part of an output multiplexer").
pub const OUTMUX_WIRES_PER_DIR: usize = 20;
/// CLB rows spanned by one Block SelectRAM block (Virtex BRAM is 4 CLB tall).
pub const BRAM_ROWS_PER_BLOCK: usize = 4;
/// Bits per Block SelectRAM block (Virtex: 4096-bit blocks).
pub const BRAM_BITS: usize = 4096;
/// BRAM data width in this model (256 × 16 organisation).
pub const BRAM_WIDTH: usize = 16;
/// BRAM depth in this model.
pub const BRAM_DEPTH: usize = BRAM_BITS / BRAM_WIDTH;

/// A CLB tile coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tile {
    pub row: u16,
    pub col: u16,
}

impl Tile {
    pub fn new(row: usize, col: usize) -> Self {
        Tile {
            row: row as u16,
            col: col as u16,
        }
    }
}

/// Compass direction of a wire leaving a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    North = 0,
    East = 1,
    South = 2,
    West = 3,
}

impl Dir {
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    pub fn from_index(i: usize) -> Dir {
        match i & 3 {
            0 => Dir::North,
            1 => Dir::East,
            2 => Dir::South,
            _ => Dir::West,
        }
    }

    /// The direction a wire *arrives from* at its destination tile.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::West => Dir::East,
        }
    }
}

/// How tile configuration bits interleave into frames (paper §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameLayout {
    /// Virtex: LUT truth-table bits are spread through a column's frames
    /// alongside routing, so masking a column's LUT-RAM contents costs
    /// many frames ("16 out of the 48 configuration data frames… cannot
    /// be read back").
    #[default]
    Virtex,
    /// Virtex-II-style: "all of the LUT data for a given CLB column is
    /// contained in two configuration data frames, so most of the
    /// bitstream data for that column of CLBs can be read back during
    /// design execution."
    Virtex2,
}

/// Device geometry. All structural sizes derive from this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    /// Human-readable device name.
    pub name: String,
    /// CLB rows.
    pub rows: usize,
    /// CLB columns.
    pub cols: usize,
    /// Number of Block SelectRAM columns.
    pub bram_cols: usize,
    /// Frame interleaving family.
    pub layout: FrameLayout,
}

impl Geometry {
    /// A new geometry. Rows must be a multiple of [`BRAM_ROWS_PER_BLOCK`]
    /// when `bram_cols > 0`.
    pub fn new(name: &str, rows: usize, cols: usize, bram_cols: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "device too small");
        if bram_cols > 0 {
            assert_eq!(
                rows % BRAM_ROWS_PER_BLOCK,
                0,
                "rows must be a multiple of {BRAM_ROWS_PER_BLOCK} with BRAM columns"
            );
            assert!(bram_cols < cols, "too many BRAM columns");
        }
        Geometry {
            name: name.to_string(),
            rows,
            cols,
            bram_cols,
            layout: FrameLayout::Virtex,
        }
    }

    /// The same geometry with Virtex-II-style frame interleaving (paper
    /// §IV-A) — behaviourally identical, but LUT truth-table bits
    /// concentrate into the first frames of each column.
    pub fn with_virtex2_layout(mut self) -> Self {
        self.layout = FrameLayout::Virtex2;
        self.name = format!("{}-II", self.name);
        self
    }

    /// The XQVR1000-class flight geometry: 64×96 CLBs, 12 288 slices,
    /// ≈6 Mbit of configuration — the device the paper's nine-FPGA radio
    /// and SLAAC-1V testbed used.
    pub fn xqvr1000() -> Self {
        Geometry::new("XQVR1000", 64, 96, 8)
    }

    /// A quarter-scale device, where exhaustive sweeps of the larger test
    /// designs stay tractable on a workstation.
    pub fn quarter() -> Self {
        Geometry::new("CIB-Q", 32, 48, 4)
    }

    /// A small device for integration tests.
    pub fn small() -> Self {
        Geometry::new("CIB-S", 16, 24, 2)
    }

    /// A tiny device for unit tests.
    pub fn tiny() -> Self {
        Geometry::new("CIB-T", 8, 8, 1)
    }

    /// Number of CLB tiles.
    pub fn num_tiles(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of logic slices.
    pub fn num_slices(&self) -> usize {
        self.num_tiles() * SLICES_PER_TILE
    }

    /// BRAM blocks per BRAM column.
    pub fn bram_blocks_per_col(&self) -> usize {
        if self.bram_cols == 0 {
            0
        } else {
            self.rows / BRAM_ROWS_PER_BLOCK
        }
    }

    /// Total BRAM blocks.
    pub fn num_bram_blocks(&self) -> usize {
        self.bram_cols * self.bram_blocks_per_col()
    }

    /// Linear tile index (row-major).
    #[inline]
    pub fn tile_index(&self, t: Tile) -> usize {
        debug_assert!((t.row as usize) < self.rows && (t.col as usize) < self.cols);
        t.row as usize * self.cols + t.col as usize
    }

    /// Inverse of [`Geometry::tile_index`].
    #[inline]
    pub fn tile_at(&self, index: usize) -> Tile {
        Tile::new(index / self.cols, index % self.cols)
    }

    /// The neighbouring tile in direction `d`, or `None` at the device edge.
    pub fn neighbor(&self, t: Tile, d: Dir) -> Option<Tile> {
        let (r, c) = (t.row as isize, t.col as isize);
        let (nr, nc) = match d {
            Dir::North => (r - 1, c),
            Dir::South => (r + 1, c),
            Dir::East => (r, c + 1),
            Dir::West => (r, c - 1),
        };
        if nr < 0 || nc < 0 || nr as usize >= self.rows || nc as usize >= self.cols {
            None
        } else {
            Some(Tile::new(nr as usize, nc as usize))
        }
    }

    /// The CLB column a BRAM column is attached to. BRAM columns are spread
    /// evenly through the array, as on Virtex where they flank the CLB
    /// columns.
    pub fn bram_attach_col(&self, bram_col: usize) -> usize {
        debug_assert!(bram_col < self.bram_cols);
        ((bram_col + 1) * self.cols) / (self.bram_cols + 1)
    }

    /// The home tile of BRAM `block` in `bram_col`: the CLB tile whose
    /// incoming wires feed the block's port multiplexers and whose outgoing
    /// wires its outputs can drive.
    pub fn bram_home_tile(&self, bram_col: usize, block: usize) -> Tile {
        Tile::new(block * BRAM_ROWS_PER_BLOCK, self.bram_attach_col(bram_col))
    }

    /// The BRAM block (if any) homed at `tile`.
    pub fn bram_at_home_tile(&self, tile: Tile) -> Option<(usize, usize)> {
        if self.bram_cols == 0 || tile.row as usize % BRAM_ROWS_PER_BLOCK != 0 {
            return None;
        }
        (0..self.bram_cols)
            .find(|&bc| self.bram_attach_col(bc) == tile.col as usize)
            .map(|bc| (bc, tile.row as usize / BRAM_ROWS_PER_BLOCK))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xqvr1000_has_flight_scale() {
        let g = Geometry::xqvr1000();
        assert_eq!(g.num_slices(), 12_288);
        assert_eq!(g.num_bram_blocks(), 8 * 16);
    }

    #[test]
    fn tile_index_roundtrip() {
        let g = Geometry::tiny();
        for i in 0..g.num_tiles() {
            assert_eq!(g.tile_index(g.tile_at(i)), i);
        }
    }

    #[test]
    fn neighbors_respect_edges() {
        let g = Geometry::tiny();
        assert_eq!(g.neighbor(Tile::new(0, 0), Dir::North), None);
        assert_eq!(g.neighbor(Tile::new(0, 0), Dir::West), None);
        assert_eq!(
            g.neighbor(Tile::new(0, 0), Dir::East),
            Some(Tile::new(0, 1))
        );
        assert_eq!(
            g.neighbor(Tile::new(3, 3), Dir::South),
            Some(Tile::new(4, 3))
        );
        let last = Tile::new(g.rows - 1, g.cols - 1);
        assert_eq!(g.neighbor(last, Dir::South), None);
        assert_eq!(g.neighbor(last, Dir::East), None);
    }

    #[test]
    fn opposite_directions() {
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn bram_home_tiles_are_valid_and_distinct() {
        let g = Geometry::small();
        let mut seen = std::collections::HashSet::new();
        for bc in 0..g.bram_cols {
            for b in 0..g.bram_blocks_per_col() {
                let t = g.bram_home_tile(bc, b);
                assert!((t.row as usize) < g.rows && (t.col as usize) < g.cols);
                assert!(seen.insert(t), "duplicate home tile {t:?}");
                assert_eq!(g.bram_at_home_tile(t), Some((bc, b)));
            }
        }
        assert_eq!(g.bram_at_home_tile(Tile::new(1, 0)), None);
    }
}
