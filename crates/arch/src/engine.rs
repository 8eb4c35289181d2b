//! Cycle-accurate evaluation of a compiled network.
//!
//! Each [`eval_cycle_into`] is one user-clock edge: combinational logic settles
//! (iteratively if corruption created cycles), outputs are sampled, then
//! sequential state commits — flip-flops, BRAM ports, and run-time LUT
//! writes (distributed RAM / SRL16), which write *through* to configuration
//! memory because on a real Virtex LUT and BRAM contents **are**
//! configuration memory. That write-through is what makes the paper's
//! readback hazards (§II-C) and read-modify-write scrubbing discussion
//! (§IV-B) fall out of the model instead of being special-cased.
//!
//! Operands are read by slot from `Compiled::vals`, one `bool` per slot of
//! the network's slot layout (`compile::Layout`). Each cycle first
//! loads the slots the device owns: input ports from the stimulus (a port
//! it does not carry reads 0), flip-flops and BRAM output registers from
//! the device state. Half-latch slots change only when a latch does: the
//! compile writes them, and the device patches the one pair an upset or a
//! recovery changes. LUT slots are never loaded: they hold the previous
//! cycle's settled values, the warm start a cyclic network relaxes from.

use crate::bits::{lut_table_offset, LutMode};
use crate::compile::Compiled;
use crate::device::Device;

/// Maximum relaxation sweeps for combinational cycles.
const MAX_SWEEPS: usize = 8;

/// The bits read from `slots`, slot `i` as bit `i`.
#[inline]
fn gather(vals: &[bool], slots: &[u32]) -> usize {
    slots
        .iter()
        .enumerate()
        .fold(0, |a, (i, &s)| a | (vals[s as usize] as usize) << i)
}

/// Write `v` to `slot` and its inverse to the next slot.
#[inline]
fn set_pair(vals: &mut [bool], slot: usize, v: bool) {
    vals[slot] = v;
    vals[slot + 1] = !v;
}

/// Load the slots the device and stimulus own for this cycle.
fn load(c: &mut Compiled, d: &Device, inputs: &[bool]) {
    let l = c.layout;
    let vals = &mut c.vals;
    for p in 0..c.num_inputs {
        let v = inputs.get(p).copied().unwrap_or(false);
        set_pair(vals, l.inputs as usize + 2 * p, v);
    }
    for (i, ff) in c.ffs.iter().enumerate() {
        vals[l.ffs as usize + i] = d.ff_state.get(ff.state_idx);
    }
    for (i, b) in c.brams.iter().enumerate() {
        load_bram(vals, l.brams as usize + 16 * i, d.bram_outreg[b.reg_idx]);
    }
}

/// Spread a BRAM output register over its 16 slots from `at`.
#[inline]
fn load_bram(vals: &mut [bool], at: usize, word: u16) {
    for (k, v) in vals[at..at + 16].iter_mut().enumerate() {
        *v = (word >> k) & 1 == 1;
    }
}

/// Settle combinational logic into the LUT slots.
fn settle(c: &mut Compiled) {
    let base = c.layout.luts as usize;
    let sweeps = if c.iterative { MAX_SWEEPS } else { 1 };
    for _ in 0..sweeps {
        let mut changed = false;
        for &li in &c.order {
            let li = li as usize;
            let a = gather(&c.vals, &c.lut_pins[li]);
            let v = (c.luts[li].table >> a) & 1 == 1;
            changed |= c.vals[base + li] != v;
            c.vals[base + li] = v;
        }
        if !changed {
            break;
        }
    }
}

/// Sample the output pins into a caller-provided scratch buffer (cleared
/// first), so steady-state stepping performs no heap allocation.
fn read_outputs_into(c: &Compiled, out: &mut Vec<bool>) {
    out.clear();
    out.extend(c.out_slots.iter().map(|&(s, inv)| c.vals[s as usize] ^ inv));
}

/// Execute one full clock cycle, sampling outputs into `out` (cleared
/// first). The hot path of every fault-injection experiment: with a
/// caller-reused buffer, a whole observe window allocates nothing.
pub(crate) fn eval_cycle_into(
    c: &mut Compiled,
    d: &mut Device,
    inputs: &[bool],
    out: &mut Vec<bool>,
) {
    load(c, d, inputs);
    settle(c);
    read_outputs_into(c, out);
    let l = c.layout;

    // Flip-flop next-state, committed at once: every later read this
    // cycle goes through the FF slots, which keep the old values.
    for (i, ff) in c.ffs.iter().enumerate() {
        let s = c.ff_slots[i];
        let next = if c.vals[s.sr as usize] {
            ff.init
        } else if c.vals[s.ce as usize] {
            c.vals[s.d as usize]
        } else {
            c.vals[l.ffs as usize + i]
        };
        d.ff_state.set(ff.state_idx, next);
    }

    // BRAM port operations. A block whose content frame is mid-readback is
    // locked: the configuration logic owns its address lines (paper §IV-A).
    // A port's new output register reaches its slots at once, so later
    // ports and LUT-RAM writes this cycle read it.
    for (bi, b) in c.brams.iter().enumerate() {
        if d.bram_locked[b.reg_idx] > 0 {
            d.bram_locked[b.reg_idx] -= 1;
            continue;
        }
        let s = &c.bram_slots[bi];
        if !c.vals[s.en as usize] {
            continue;
        }
        let (col, block) = (b.col as usize, b.block as usize);
        let addr = gather(&c.vals, &s.addr);
        if c.vals[s.we as usize] {
            // Write-first: the output register sees the new word.
            let w = gather(&c.vals, &s.din) as u16;
            d.config.write_bram_word(col, block, addr, w);
            d.note_design_write();
        }
        let word = d.config.read_bram_word(col, block, addr);
        d.bram_outreg[b.reg_idx] = word;
        load_bram(&mut c.vals, l.brams as usize + 16 * bi, word);
    }

    // Run-time LUT writes (distributed RAM and SRL16). These mutate the
    // *configuration memory*, so a scrub pass that blindly restores the
    // golden frame will clobber live data — the paper's RMW problem.
    for &li in &c.dynamic_luts {
        let li = li as usize;
        if !c.vals[c.lut_we[li] as usize] {
            continue;
        }
        let lut = &mut c.luts[li];
        let data = c.vals[c.lut_data[li] as usize];
        lut.table = match lut.mode {
            LutMode::Ram => {
                let a = gather(&c.vals, &c.lut_pins[li]);
                (lut.table & !(1 << a)) | (data as u16) << a
            }
            LutMode::Shift => (lut.table << 1) | data as u16,
            _ => unreachable!(),
        };
        d.note_design_write();
        d.config.write_tile_field(
            lut.tile,
            lut_table_offset(lut.slice as usize, lut.lut as usize, 0),
            16,
            lut.table as u64,
        );
    }
}
