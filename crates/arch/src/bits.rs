//! The per-tile configuration-bit layout and its semantic map.
//!
//! Every configuration bit in a CLB tile has a defined *role* — LUT
//! truth-table bit, routing-multiplexer select bit, flip-flop control bit,
//! PIP enable, or padding. The paper's entire methodology (sensitivity of a
//! design = which configuration bits change its behaviour when flipped)
//! rests on this map being total: [`bit_role`] decodes any in-tile bit
//! offset, and the `*_offset` functions are its exact inverse, used by the
//! bitstream generator.
//!
//! Layout per slice (160 bits):
//!
//! ```text
//!   0..16    LUT F truth table          96..104  BX input mux
//!  16..32    LUT G truth table         104..112  BY input mux
//!  32..96    LUT pin muxes (8 × 8 b)   112..120  CE mux, FFX
//! 144        FFX init                  120..128  CE mux, FFY
//! 145        FFX D-mux (LUT / BX)      128..136  SR mux, FFX
//! 146        FFY init                  136..144  SR mux, FFY
//! 147        FFY D-mux (LUT / BY)
//! 148        XMUX (slice X out: LUT F or FFX)
//! 149        YMUX
//! 150..154   LUT modes (2 b each: logic/ROM/RAM/shift)
//! 154..160   reserved
//! ```
//!
//! Tile layout (1440 bits, 48 frames × 30 bits):
//!
//! ```text
//!    0..320   two slices
//!  320..640   output multiplexers (4 dirs × 20 wires × 4 b)
//!  640..1408  PIPs (96 outgoing wires × 8 b)
//! 1408..1440  padding
//! ```

use crate::geometry::{Dir, NUM_DIRS, OUTMUX_WIRES_PER_DIR, WIRES_PER_DIR, WIRES_PER_TILE};

/// Configuration bits per slice.
pub const SLICE_BITS: usize = 160;
/// Start of the output-multiplexer section within a tile.
pub const OUTMUX_BASE: usize = 2 * SLICE_BITS;
/// Bits per output-mux entry: `[enable, sel0, sel1, reserved]`.
pub const OUTMUX_BITS_PER_WIRE: usize = 4;
/// Start of the PIP section within a tile.
pub const PIP_BASE: usize = OUTMUX_BASE + NUM_DIRS * OUTMUX_WIRES_PER_DIR * OUTMUX_BITS_PER_WIRE;
/// Bits per PIP entry: `[enable, sel0..sel6]`.
pub const PIP_BITS_PER_WIRE: usize = 8;
/// Meaningful configuration bits per tile.
pub const TILE_BITS_USED: usize = PIP_BASE + WIRES_PER_TILE * PIP_BITS_PER_WIRE;
/// Frames per CLB column (Virtex: 48, paper §IV-A).
pub const FRAMES_PER_CLB_COL: usize = 48;
/// Bits each tile contributes to each of its column's frames.
pub const TILE_BITS_PER_FRAME: usize = 30;
/// Total configuration bits per tile, including padding.
pub const TILE_BITS: usize = FRAMES_PER_CLB_COL * TILE_BITS_PER_FRAME;

/// Width of every input-select multiplexer field.
pub const MUX_FIELD_BITS: usize = 8;
/// Width of a PIP select field.
pub const PIP_SEL_BITS: usize = 7;

/// Canonical "unconnected" mux encoding: sourced from a half-latch,
/// non-inverted (reads constant 1). This is what the CAD flow emits for
/// always-enabled CE pins (paper Fig. 14).
pub const MUX_UNCONNECTED: u8 = 112;
/// Unconnected, inverted: reads constant 0 (CAD default for SR pins).
pub const MUX_UNCONNECTED_INV: u8 = 113;
/// A mux encoding that reads as constant 0 without a half-latch
/// (a genuinely floating input).
pub const MUX_FLOATING: u8 = 96;

/// One of the fourteen input multiplexers of a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MuxPin {
    /// LUT data pin: `lut` ∈ {0 = F, 1 = G}, `pin` ∈ 0..4.
    LutPin { lut: u8, pin: u8 },
    /// FFX auxiliary data input.
    Bx,
    /// FFY auxiliary data input.
    By,
    /// FFX clock enable.
    Cex,
    /// FFY clock enable.
    Cey,
    /// FFX synchronous reset.
    Srx,
    /// FFY synchronous reset.
    Sry,
}

impl MuxPin {
    /// Dense index 0..14 used by the bit layout.
    pub fn index(self) -> usize {
        match self {
            MuxPin::LutPin { lut, pin } => (lut as usize) * 4 + pin as usize,
            MuxPin::Bx => 8,
            MuxPin::By => 9,
            MuxPin::Cex => 10,
            MuxPin::Cey => 11,
            MuxPin::Srx => 12,
            MuxPin::Sry => 13,
        }
    }

    /// Inverse of [`MuxPin::index`].
    pub fn from_index(i: usize) -> MuxPin {
        match i {
            0..=7 => MuxPin::LutPin {
                lut: (i / 4) as u8,
                pin: (i % 4) as u8,
            },
            8 => MuxPin::Bx,
            9 => MuxPin::By,
            10 => MuxPin::Cex,
            11 => MuxPin::Cey,
            12 => MuxPin::Srx,
            13 => MuxPin::Sry,
            _ => panic!("mux pin index {i} out of range"),
        }
    }

    /// Number of input muxes per slice.
    pub const COUNT: usize = 14;
}

/// Operating mode of a LUT (2-bit configuration field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LutMode {
    /// Combinational logic (truth table is static).
    #[default]
    Logic = 0,
    /// Read-only memory: identical behaviour to `Logic`, but declared as a
    /// constant store (RadDRC emits these; readback-safe).
    Rom = 1,
    /// 16×1 distributed RAM: the truth table is written at run time —
    /// readback while the design clocks corrupts it (paper §II-C).
    Ram = 2,
    /// SRL16 shift register: the truth table shifts at run time.
    Shift = 3,
}

impl LutMode {
    pub fn from_bits(v: u64) -> LutMode {
        match v & 3 {
            0 => LutMode::Logic,
            1 => LutMode::Rom,
            2 => LutMode::Ram,
            _ => LutMode::Shift,
        }
    }

    /// True if the truth table is written by the running design, making
    /// simultaneous readback hazardous.
    pub fn is_dynamic(self) -> bool {
        matches!(self, LutMode::Ram | LutMode::Shift)
    }
}

/// Decoded meaning of an input-select multiplexer field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxSel {
    /// An incoming single-length wire.
    Wire(Dir, u8),
    /// Disconnected: reads constant 0.
    Floating,
    /// Unconnected input kept by a half-latch; reads the latch value,
    /// optionally inverted (paper Fig. 13: the B select).
    HalfLatch { invert: bool },
}

/// Decode an 8-bit input-mux select value.
pub fn decode_mux(v: u8) -> MuxSel {
    match v {
        0..=95 => MuxSel::Wire(
            Dir::from_index(v as usize / WIRES_PER_DIR),
            (v as usize % WIRES_PER_DIR) as u8,
        ),
        96..=111 => MuxSel::Floating,
        112..=175 => MuxSel::HalfLatch { invert: v & 1 == 1 },
        _ => MuxSel::Floating,
    }
}

/// Encode a wire selection for an input mux.
pub fn encode_wire(dir: Dir, idx: usize) -> u8 {
    debug_assert!(idx < WIRES_PER_DIR);
    (dir as usize * WIRES_PER_DIR + idx) as u8
}

/// Decoded meaning of a PIP select field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipSel {
    /// Pass through from an incoming wire.
    Wire(Dir, u8),
    /// A data-out bit of the BRAM block homed at this tile.
    BramOut(u8),
    /// Disconnected.
    Floating,
}

/// Decode a 7-bit PIP select value.
pub fn decode_pip(v: u8) -> PipSel {
    match v & 0x7f {
        w @ 0..=95 => PipSel::Wire(
            Dir::from_index(w as usize / WIRES_PER_DIR),
            (w as usize % WIRES_PER_DIR) as u8,
        ),
        b @ 96..=111 => PipSel::BramOut(b - 96),
        _ => PipSel::Floating,
    }
}

/// Semantic role of one configuration bit within a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitRole {
    /// Truth-table bit `bit` of LUT `lut` in `slice`.
    LutTable { slice: u8, lut: u8, bit: u8 },
    /// Bit `bit` of the select field of input mux `pin` in `slice`.
    InputMux { slice: u8, pin: MuxPin, bit: u8 },
    /// Flip-flop reset/startup value.
    FfInit { slice: u8, ff: u8 },
    /// Flip-flop D-input source: 0 = LUT output, 1 = BX/BY mux.
    FfDmux { slice: u8, ff: u8 },
    /// Slice output select: 0 = LUT combinational out, 1 = FF out.
    OutSel { slice: u8, out: u8 },
    /// LUT mode field bit.
    LutModeBit { slice: u8, lut: u8, bit: u8 },
    /// Reserved slice bit (no behavioural effect).
    SliceReserved { slice: u8, bit: u8 },
    /// Output-multiplexer entry bit for outgoing wire `wire` in `dir`:
    /// bit 0 = enable, 1–2 = source select, 3 = reserved.
    OutMux { dir: Dir, wire: u8, bit: u8 },
    /// PIP entry bit for outgoing wire `wire` (flat 0..96 index):
    /// bit 0 = enable, 1–7 = select.
    Pip { wire: u8, bit: u8 },
    /// Padding (no behavioural effect).
    Pad,
}

// Slice-internal offsets.
const LUT_TABLE_OFF: usize = 0; // 2 × 16
const INPUT_MUX_OFF: usize = 32; // 14 × 8 = 112 → 32..144
const FF_INIT_OFF: usize = 144; // 2
const FF_DMUX_X: usize = 145;
const FF_INIT_Y: usize = 146;
const FF_DMUX_Y: usize = 147;
const OUT_SEL_OFF: usize = 148; // 2
const LUT_MODE_OFF: usize = 150; // 2 × 2

/// Offset (within the tile) of truth-table bit `bit` of `lut` in `slice`.
pub fn lut_table_offset(slice: usize, lut: usize, bit: usize) -> usize {
    debug_assert!(slice < 2 && lut < 2 && bit < 16);
    slice * SLICE_BITS + LUT_TABLE_OFF + lut * 16 + bit
}

/// Offset of the 8-bit select field of input mux `pin` in `slice`.
pub fn input_mux_offset(slice: usize, pin: MuxPin) -> usize {
    debug_assert!(slice < 2);
    slice * SLICE_BITS + INPUT_MUX_OFF + pin.index() * MUX_FIELD_BITS
}

/// Offset of the init bit of flip-flop `ff` (0 = X, 1 = Y) in `slice`.
pub fn ff_init_offset(slice: usize, ff: usize) -> usize {
    debug_assert!(slice < 2 && ff < 2);
    slice * SLICE_BITS + if ff == 0 { FF_INIT_OFF } else { FF_INIT_Y }
}

/// Offset of the D-mux bit of flip-flop `ff` in `slice`.
pub fn ff_dmux_offset(slice: usize, ff: usize) -> usize {
    debug_assert!(slice < 2 && ff < 2);
    slice * SLICE_BITS + if ff == 0 { FF_DMUX_X } else { FF_DMUX_Y }
}

/// Offset of the output-select bit for slice output `out` (0 = X, 1 = Y).
pub fn out_sel_offset(slice: usize, out: usize) -> usize {
    debug_assert!(slice < 2 && out < 2);
    slice * SLICE_BITS + OUT_SEL_OFF + out
}

/// Offset of the 2-bit mode field of `lut` in `slice`.
pub fn lut_mode_offset(slice: usize, lut: usize) -> usize {
    debug_assert!(slice < 2 && lut < 2);
    slice * SLICE_BITS + LUT_MODE_OFF + lut * 2
}

/// Offset of the 4-bit output-mux entry for drivable wire `wire` in `dir`.
pub fn outmux_offset(dir: Dir, wire: usize) -> usize {
    debug_assert!(wire < OUTMUX_WIRES_PER_DIR);
    OUTMUX_BASE + (dir as usize * OUTMUX_WIRES_PER_DIR + wire) * OUTMUX_BITS_PER_WIRE
}

/// Offset of the 8-bit PIP entry for outgoing wire flat index `wire`
/// (`dir as usize * 24 + idx`).
pub fn pip_offset(wire: usize) -> usize {
    debug_assert!(wire < WIRES_PER_TILE);
    PIP_BASE + wire * PIP_BITS_PER_WIRE
}

/// Number of truth-table bits per tile (2 slices × 2 LUTs × 16).
pub const TABLE_BITS_PER_TILE: usize = 64;

// The Virtex frame interleaving scatters each LUT's 16 truth-table bits
// across the column's first 16 frames (one bit per frame, the four LUTs
// of a tile occupying the first four in-frame slots) — which is why the
// paper's §IV-A complains that using one LUT as RAM forces "16 out of the
// 48 configuration data frames for that CLB column" to be skipped during
// readback. Non-table bits fill the remaining positions in order.

/// Frames per column that carry LUT truth-table data under the Virtex
/// interleaving.
pub const V1_TABLE_FRAMES: usize = 16;
const V1_FREE_PER_TABLE_FRAME: usize = TILE_BITS_PER_FRAME - 4;
const V1_FRONT_NONTABLE: usize = V1_TABLE_FRAMES * V1_FREE_PER_TABLE_FRAME; // 416

/// Virtex frame position of tile offset `off`. Compile-time tables in
/// [`crate::frames`] are built from it and serve every reader.
pub const fn v1_pos_of_off(off: usize) -> usize {
    if off < OUTMUX_BASE && (off % SLICE_BITS) < 32 {
        // Table bit: scatter by bit index.
        let s = off / SLICE_BITS;
        let w = off % SLICE_BITS;
        let l = w / 16;
        let b = w % 16;
        return b * TILE_BITS_PER_FRAME + (s * 2 + l);
    }
    // Non-table rank in declaration order.
    let r = if off < SLICE_BITS {
        off - 32
    } else if off < OUTMUX_BASE {
        (SLICE_BITS - 32) + (off - SLICE_BITS - 32)
    } else {
        2 * (SLICE_BITS - 32) + (off - OUTMUX_BASE)
    };
    if r < V1_FRONT_NONTABLE {
        (r / V1_FREE_PER_TABLE_FRAME) * TILE_BITS_PER_FRAME + 4 + r % V1_FREE_PER_TABLE_FRAME
    } else {
        V1_TABLE_FRAMES * TILE_BITS_PER_FRAME + (r - V1_FRONT_NONTABLE)
    }
}

/// Virtex-II-style frame position of tile offset `off`: all truth-table
/// bits move to the front (positions 0..64 — the first frames of the
/// column), everything else follows in order. Like [`v1_pos_of_off`],
/// it is read through compile-time tables in [`crate::frames`].
pub const fn v2_pos_of_off(off: usize) -> usize {
    if off >= OUTMUX_BASE {
        return off;
    }
    let s = off / SLICE_BITS;
    let w = off % SLICE_BITS;
    if w < 32 {
        s * 32 + w
    } else {
        TABLE_BITS_PER_TILE + s * (SLICE_BITS - 32) + (w - 32)
    }
}

/// Decode the role of tile-relative configuration bit `off`.
pub fn bit_role(off: usize) -> BitRole {
    debug_assert!(off < TILE_BITS);
    if off < OUTMUX_BASE {
        let slice = (off / SLICE_BITS) as u8;
        let s = off % SLICE_BITS;
        match s {
            0..=31 => BitRole::LutTable {
                slice,
                lut: (s / 16) as u8,
                bit: (s % 16) as u8,
            },
            32..=143 => {
                let m = s - INPUT_MUX_OFF;
                BitRole::InputMux {
                    slice,
                    pin: MuxPin::from_index(m / MUX_FIELD_BITS),
                    bit: (m % MUX_FIELD_BITS) as u8,
                }
            }
            144 => BitRole::FfInit { slice, ff: 0 },
            145 => BitRole::FfDmux { slice, ff: 0 },
            146 => BitRole::FfInit { slice, ff: 1 },
            147 => BitRole::FfDmux { slice, ff: 1 },
            148 | 149 => BitRole::OutSel {
                slice,
                out: (s - 148) as u8,
            },
            150..=153 => BitRole::LutModeBit {
                slice,
                lut: ((s - LUT_MODE_OFF) / 2) as u8,
                bit: ((s - LUT_MODE_OFF) % 2) as u8,
            },
            _ => BitRole::SliceReserved {
                slice,
                bit: (s - 154) as u8,
            },
        }
    } else if off < PIP_BASE {
        let e = off - OUTMUX_BASE;
        let entry = e / OUTMUX_BITS_PER_WIRE;
        BitRole::OutMux {
            dir: Dir::from_index(entry / OUTMUX_WIRES_PER_DIR),
            wire: (entry % OUTMUX_WIRES_PER_DIR) as u8,
            bit: (e % OUTMUX_BITS_PER_WIRE) as u8,
        }
    } else if off < TILE_BITS_USED {
        let e = off - PIP_BASE;
        BitRole::Pip {
            wire: (e / PIP_BITS_PER_WIRE) as u8,
            bit: (e % PIP_BITS_PER_WIRE) as u8,
        }
    } else {
        BitRole::Pad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_fits_frames() {
        const _: () = assert!(TILE_BITS_USED <= TILE_BITS);
        assert_eq!(TILE_BITS, FRAMES_PER_CLB_COL * TILE_BITS_PER_FRAME);
        assert_eq!(TILE_BITS_USED, 1408);
    }

    #[test]
    fn offsets_decode_back_to_roles() {
        for slice in 0..2 {
            for lut in 0..2 {
                for bit in 0..16 {
                    assert_eq!(
                        bit_role(lut_table_offset(slice, lut, bit)),
                        BitRole::LutTable {
                            slice: slice as u8,
                            lut: lut as u8,
                            bit: bit as u8
                        }
                    );
                }
                assert_eq!(
                    bit_role(lut_mode_offset(slice, lut)),
                    BitRole::LutModeBit {
                        slice: slice as u8,
                        lut: lut as u8,
                        bit: 0
                    }
                );
            }
            for pi in 0..MuxPin::COUNT {
                let pin = MuxPin::from_index(pi);
                assert_eq!(
                    bit_role(input_mux_offset(slice, pin)),
                    BitRole::InputMux {
                        slice: slice as u8,
                        pin,
                        bit: 0
                    }
                );
            }
            for ff in 0..2 {
                assert_eq!(
                    bit_role(ff_init_offset(slice, ff)),
                    BitRole::FfInit {
                        slice: slice as u8,
                        ff: ff as u8
                    }
                );
                assert_eq!(
                    bit_role(ff_dmux_offset(slice, ff)),
                    BitRole::FfDmux {
                        slice: slice as u8,
                        ff: ff as u8
                    }
                );
            }
        }
        assert_eq!(
            bit_role(outmux_offset(Dir::East, 19) + 1),
            BitRole::OutMux {
                dir: Dir::East,
                wire: 19,
                bit: 1
            }
        );
        assert_eq!(
            bit_role(pip_offset(95) + 7),
            BitRole::Pip { wire: 95, bit: 7 }
        );
        assert_eq!(bit_role(TILE_BITS - 1), BitRole::Pad);
    }

    #[test]
    fn every_tile_bit_decodes() {
        // Totality: no offset panics, and sections are contiguous.
        let mut counts = [0usize; 5];
        for off in 0..TILE_BITS {
            match bit_role(off) {
                BitRole::LutTable { .. } => counts[0] += 1,
                BitRole::InputMux { .. } => counts[1] += 1,
                BitRole::OutMux { .. } => counts[2] += 1,
                BitRole::Pip { .. } => counts[3] += 1,
                _ => counts[4] += 1,
            }
        }
        assert_eq!(counts[0], 64);
        assert_eq!(counts[1], 2 * 14 * 8);
        assert_eq!(counts[2], 320);
        assert_eq!(counts[3], 768);
    }

    #[test]
    fn mux_decode_semantics() {
        assert_eq!(decode_mux(0), MuxSel::Wire(Dir::North, 0));
        assert_eq!(decode_mux(25), MuxSel::Wire(Dir::East, 1));
        assert_eq!(decode_mux(95), MuxSel::Wire(Dir::West, 23));
        assert_eq!(decode_mux(MUX_FLOATING), MuxSel::Floating);
        assert_eq!(
            decode_mux(MUX_UNCONNECTED),
            MuxSel::HalfLatch { invert: false }
        );
        assert_eq!(
            decode_mux(MUX_UNCONNECTED_INV),
            MuxSel::HalfLatch { invert: true }
        );
        assert_eq!(decode_mux(200), MuxSel::Floating);
        for d in Dir::ALL {
            for i in 0..WIRES_PER_DIR {
                assert_eq!(decode_mux(encode_wire(d, i)), MuxSel::Wire(d, i as u8));
            }
        }
    }

    #[test]
    fn pip_decode_semantics() {
        assert_eq!(decode_pip(0), PipSel::Wire(Dir::North, 0));
        assert_eq!(decode_pip(96), PipSel::BramOut(0));
        assert_eq!(decode_pip(111), PipSel::BramOut(15));
        assert_eq!(decode_pip(120), PipSel::Floating);
    }

    #[test]
    fn lut_mode_roundtrip() {
        for m in [LutMode::Logic, LutMode::Rom, LutMode::Ram, LutMode::Shift] {
            assert_eq!(LutMode::from_bits(m as u64), m);
        }
        assert!(LutMode::Ram.is_dynamic());
        assert!(LutMode::Shift.is_dynamic());
        assert!(!LutMode::Rom.is_dynamic());
    }
}
