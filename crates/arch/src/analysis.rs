//! Static analysis of the compiled network.
//!
//! [`Device::active_config_bits`] computes the *active closure*: every
//! configuration bit whose flip could possibly alter observable behaviour.
//! Bits outside the closure are provably inert — they configure resources
//! with no connection into any output cone (a LUT nobody reads, a wire with
//! no readers), so flipping them cannot change outputs. Exhaustive
//! campaigns simulate the closure and count the rest as tested-benign,
//! which is what makes full-bitstream sweeps fast — the software analogue
//! of the paper's hardware-speed advantage.

use crate::bits::{
    ff_dmux_offset, ff_init_offset, input_mux_offset, lut_mode_offset, lut_table_offset,
    out_sel_offset, outmux_offset, pip_offset, MuxPin, MUX_FIELD_BITS, OUTMUX_BITS_PER_WIRE,
    PIP_BITS_PER_WIRE,
};
use crate::bitvec::BitVec;
use crate::device::Device;
use crate::frames::{BRAM_IF_BITS, IOB_ENTRY_BITS};
use crate::geometry::{Tile, BRAM_BITS, OUTMUX_WIRES_PER_DIR, WIRES_PER_DIR};

impl Device {
    /// Global indices of every configuration bit in the active closure of
    /// the current configuration, sorted ascending.
    pub fn active_config_bits(&mut self) -> Vec<usize> {
        self.ensure_compiled();
        let c = self.compiled.as_ref().expect("compiled");
        let mut bits = BitVec::zeros(self.config.total_bits());

        let add_field = |set: &mut BitVec, tile: Tile, off: usize, n: usize| {
            for k in 0..n {
                set.set(self.config.tile_bit_index(tile, off + k), true);
            }
        };

        // Slice-slot fields of every compiled LUT and FF. For each slot we
        // take the full complement of fields that the compiler *would* read
        // for that slot — mux selects, table, mode, FF control — because a
        // flip in any of them changes what compiles. A LUT and the FF of
        // its slot mark the same bits.
        let slots = c
            .luts
            .iter()
            .map(|l| (l.tile, l.slice, l.lut))
            .chain(c.ffs.iter().map(|f| self.ff_site(f.state_idx)));
        for (tile, slice, idx) in slots {
            let (s, i) = (slice as usize, idx as usize);
            add_field(&mut bits, tile, lut_table_offset(s, i, 0), 16);
            add_field(&mut bits, tile, lut_mode_offset(s, i), 2);
            for p in 0..4 {
                add_field(
                    &mut bits,
                    tile,
                    input_mux_offset(s, MuxPin::LutPin { lut: idx, pin: p }),
                    MUX_FIELD_BITS,
                );
            }
            let aux: [MuxPin; 3] = if i == 0 {
                [MuxPin::Bx, MuxPin::Cex, MuxPin::Srx]
            } else {
                [MuxPin::By, MuxPin::Cey, MuxPin::Sry]
            };
            for pin in aux {
                add_field(&mut bits, tile, input_mux_offset(s, pin), MUX_FIELD_BITS);
            }
            add_field(&mut bits, tile, ff_init_offset(s, i), 1);
            add_field(&mut bits, tile, ff_dmux_offset(s, i), 1);
            add_field(&mut bits, tile, out_sel_offset(s, i), 1);
        }

        // Routing fields of every wire the compiler traced.
        for &(tile_idx, flat) in &c.active_wires {
            let tile = self.geom.tile_at(tile_idx);
            let flat = flat as usize;
            let idx = flat % WIRES_PER_DIR;
            if idx < OUTMUX_WIRES_PER_DIR {
                add_field(
                    &mut bits,
                    tile,
                    outmux_offset(crate::geometry::Dir::from_index(flat / WIRES_PER_DIR), idx),
                    OUTMUX_BITS_PER_WIRE,
                );
            }
            add_field(&mut bits, tile, pip_offset(flat), PIP_BITS_PER_WIRE);
        }

        // BRAM interface and content of every compiled block.
        for b in &c.brams {
            let (col, block) = (b.col as usize, b.block as usize);
            for off in 0..BRAM_IF_BITS {
                bits.set(self.config.bram_if_index(col, block, off), true);
            }
            for bit in 0..BRAM_BITS {
                bits.set(self.config.bram_content_index(col, block, bit), true);
            }
        }

        // All IOB entries (port bindings; cheap to include wholesale).
        for edge in [crate::frames::Edge::West, crate::frames::Edge::East] {
            for row in 0..self.geom.rows {
                for wire in 0..WIRES_PER_DIR {
                    for bit in 0..IOB_ENTRY_BITS {
                        bits.set(self.config.iob_bit_index(edge, row, wire, bit), true);
                    }
                }
            }
        }

        bits.ones()
    }

    /// The half-latch sites the active logic reads (critical *and*
    /// non-critical), sorted, for hidden-state fault campaigns.
    pub fn active_half_latch_sites(&mut self) -> Vec<crate::halflatch::HlSite> {
        self.ensure_compiled();
        self.compiled
            .as_ref()
            .expect("compiled")
            .hl_site_list
            .clone()
    }
}
