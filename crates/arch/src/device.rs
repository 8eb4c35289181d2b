//! The FPGA device: configuration memory + hidden state + runtime state.
//!
//! A [`Device`] is everything one Virtex-class part holds: its frame-
//! organised configuration memory, the user state (flip-flops, BRAM output
//! registers), the hidden state readback cannot see (half-latches, the
//! configuration state machine), and any permanent stuck-at faults. The
//! execution engine ([`Device::step`]) runs whatever the configuration
//! memory currently describes — including corrupted configurations, which
//! is the paper's core trick: "we can run the corrupted designs directly on
//! the FPGA hardware".

use crate::bits::{ff_init_offset, TILE_BITS_PER_FRAME};
use crate::bitvec::BitVec;
use crate::compile::{compile, Compiled};
use crate::engine;
use crate::frames::ConfigMemory;
use crate::geometry::{Geometry, Tile};
use crate::halflatch::{HalfLatches, HlSite};
use std::collections::VecDeque;

use crate::permfault::{FaultSite, PermFaults};
use crate::selectmap::{DynamicLuts, PortTiming, ReadFault, WriteFault};
use cibola_telemetry::PortFaultStats;

/// A full configuration image, as stored in the payload's FLASH module.
pub type Bitstream = ConfigMemory;

/// One simulated FPGA.
#[derive(Debug)]
pub struct Device {
    pub(crate) geom: Geometry,
    pub(crate) config: ConfigMemory,
    pub(crate) half_latches: HalfLatches,
    pub(crate) perm_faults: PermFaults,
    /// Flip-flop state: index = (tile × 2 + slice) × 2 + ff.
    pub(crate) ff_state: BitVec,
    /// BRAM output registers, one per block (col-major).
    pub(crate) bram_outreg: Vec<u16>,
    /// Cycles each BRAM block remains locked by an in-flight content
    /// readback (configuration logic owns its address lines, paper §IV-A).
    pub(crate) bram_locked: Vec<u8>,
    /// Configuration-port cost model.
    pub port_timing: PortTiming,
    /// Device-level "programmed" flag — an upset to the hidden
    /// configuration state machine clears it ("the device becomes
    /// unprogrammed", paper §III-C).
    pub(crate) programmed: bool,
    /// Whether the user clock is toggling while configuration-port
    /// operations happen; drives the readback hazards of §II-C.
    pub(crate) clock_running: bool,
    /// Monotonic count of executed clock cycles since the last full
    /// configuration.
    pub(crate) cycles: u64,
    /// Deterministic counter used to pick which bit a readback hazard
    /// corrupts.
    pub(crate) hazard_counter: u64,
    /// Compile every flip-flop and BRAM on the device into the network,
    /// not just the output cones — real hardware clocks everything, which
    /// matters to diagnostics that observe state through readback capture
    /// rather than ports (the BIST wire test). Costs eval time; off by
    /// default.
    pub(crate) compile_all_state: bool,
    /// Set whenever the *running design* writes configuration memory
    /// (LUT-RAM/SRL16 or BRAM writes) — including corrupted designs whose
    /// upset accidentally created a dynamic resource. Fault injectors use
    /// this to know a bit-repair alone cannot restore the image.
    pub(crate) design_wrote_config: bool,
    /// Injected single-shot faults on the configuration port's read path
    /// (SEFIs), consumed in order by [`Device::try_readback_frame`].
    pub(crate) read_faults: VecDeque<ReadFault>,
    /// Injected single-shot faults on the port's write path, consumed by
    /// [`Device::try_partial_configure_frame`].
    pub(crate) write_faults: VecDeque<WriteFault>,
    /// The port is wedged (SelectMAP SEFI); every port operation fails
    /// until [`Device::port_reset`].
    pub(crate) port_wedged: bool,
    /// Running tallies of port faults observed by the `try_*` operations.
    /// Plain `Copy` counters — `Device` is cloned on hot campaign paths
    /// and cannot carry a telemetry handle.
    pub(crate) port_faults: PortFaultStats,
    pub(crate) compiled: Option<Compiled>,
    /// The network a structural [`Device::flip_config_bit`] set aside,
    /// with the bit it flipped: flipping that bit back restores it
    /// instead of compiling again. Anything else that changes the
    /// configuration or what the compile reads drops it (see
    /// [`Device::invalidate`]).
    pub(crate) kept: Option<Box<(usize, Compiled)>>,
    /// Cache of the LUTs configured as RAM or SRL16 — the sites the
    /// readback hazard corrupts. Built on the first CLB readback or skip
    /// with the clock running; after that each column is checked against
    /// the stamps of the frames holding its mode bits and derived again
    /// only when one moved, so no configuration write has to drop it.
    pub(crate) dynamic_luts: Option<DynamicLuts>,
}

impl Clone for Device {
    fn clone(&self) -> Self {
        Device {
            geom: self.geom.clone(),
            config: self.config.clone(),
            half_latches: self.half_latches.clone(),
            perm_faults: self.perm_faults.clone(),
            ff_state: self.ff_state.clone(),
            bram_outreg: self.bram_outreg.clone(),
            bram_locked: self.bram_locked.clone(),
            port_timing: self.port_timing,
            programmed: self.programmed,
            clock_running: self.clock_running,
            cycles: self.cycles,
            hazard_counter: self.hazard_counter,
            design_wrote_config: self.design_wrote_config,
            compile_all_state: self.compile_all_state,
            read_faults: self.read_faults.clone(),
            write_faults: self.write_faults.clone(),
            port_wedged: self.port_wedged,
            port_faults: self.port_faults,
            // The compiled network, the one set aside and the dynamic-LUT
            // sites are caches; rebuild lazily in the clone.
            compiled: None,
            kept: None,
            dynamic_luts: None,
        }
    }
}

impl Device {
    /// A blank (unprogrammed) device.
    pub fn new(geom: Geometry) -> Self {
        let config = ConfigMemory::new(geom.clone());
        let num_ffs = geom.num_tiles() * 4;
        Device {
            ff_state: BitVec::zeros(num_ffs),
            bram_outreg: vec![0; geom.num_bram_blocks()],
            bram_locked: vec![0; geom.num_bram_blocks()],
            port_timing: PortTiming::default(),
            half_latches: HalfLatches::new(),
            perm_faults: PermFaults::new(),
            programmed: false,
            clock_running: true,
            cycles: 0,
            hazard_counter: 0,
            design_wrote_config: false,
            compile_all_state: false,
            read_faults: VecDeque::new(),
            write_faults: VecDeque::new(),
            port_wedged: false,
            port_faults: PortFaultStats::default(),
            compiled: None,
            kept: None,
            dynamic_luts: None,
            config,
            geom,
        }
    }

    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Read-only view of configuration memory.
    pub fn config(&self) -> &ConfigMemory {
        &self.config
    }

    /// True once a full configuration has completed and no hidden-FSM upset
    /// has struck.
    pub fn is_programmed(&self) -> bool {
        self.programmed
    }

    /// Cycles executed since the last full configuration.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// True if the running design has written configuration memory
    /// (LUT-RAM, SRL16 or BRAM traffic) since the flag was last cleared.
    pub fn design_wrote_config(&self) -> bool {
        self.design_wrote_config
    }

    /// Clock *every* flip-flop on the device, not only those inside output
    /// cones — matches real hardware for diagnostics that observe state
    /// via readback capture (BIST). Slower; off by default.
    pub fn set_compile_all_state(&mut self, v: bool) {
        if self.compile_all_state != v {
            self.compile_all_state = v;
            self.invalidate();
        }
    }

    /// Set whether the user clock keeps toggling during configuration-port
    /// operations (paper §II-C: stopping the clock avoids the LUT-RAM and
    /// BRAM readback hazards).
    pub fn set_clock_running(&mut self, running: bool) {
        self.clock_running = running;
    }

    pub fn clock_running(&self) -> bool {
        self.clock_running
    }

    // ---- hidden state ----------------------------------------------------

    /// Invert the half-latch at `site` (an SEU on hidden state).
    pub fn upset_half_latch(&mut self, site: HlSite) {
        self.half_latches.upset(site);
        self.patch_half_latch(site);
    }

    /// Spontaneously recover the half-latch at `site`.
    pub fn recover_half_latch(&mut self, site: HlSite) {
        self.half_latches.recover(site);
        self.patch_half_latch(site);
    }

    /// Write the latch at `site` into the compiled network's slot pair,
    /// and drop any network set aside, whose slots would be stale.
    fn patch_half_latch(&mut self, site: HlSite) {
        self.kept = None;
        if let Some(c) = &mut self.compiled {
            c.set_half_latch(site, self.half_latches.value(site));
        }
    }

    /// Current node-A value of the half-latch at `site`.
    pub fn half_latch_value(&self, site: HlSite) -> bool {
        self.half_latches.value(site)
    }

    /// Number of currently-upset half-latches.
    pub fn upset_half_latch_count(&self) -> usize {
        self.half_latches.upset_count()
    }

    /// Sites of all currently-upset half-latches.
    pub fn upset_half_latch_sites(&self) -> Vec<HlSite> {
        self.half_latches.upset_sites().collect()
    }

    /// Upset the hidden configuration state machine: the device
    /// unprograms and needs a full reconfiguration.
    pub fn upset_config_fsm(&mut self) {
        self.programmed = false;
        self.invalidate();
    }

    // ---- configuration-port faults (SEFIs) --------------------------------

    /// Queue a single-shot fault on the port's read path; the next
    /// [`Device::try_readback_frame`] consumes it.
    pub fn inject_read_fault(&mut self, fault: ReadFault) {
        self.read_faults.push_back(fault);
    }

    /// Queue a single-shot fault on the port's write path; the next
    /// [`Device::try_partial_configure_frame`] consumes it.
    pub fn inject_write_fault(&mut self, fault: WriteFault) {
        self.write_faults.push_back(fault);
    }

    /// Wedge the configuration port immediately (a SEFI striking between
    /// port operations). Recovered only by [`Device::port_reset`].
    pub fn wedge_port(&mut self) {
        self.port_wedged = true;
    }

    /// True while the configuration port is wedged by a SEFI.
    pub fn is_port_wedged(&self) -> bool {
        self.port_wedged
    }

    /// Injected port faults not yet consumed by a port operation.
    pub fn pending_port_faults(&self) -> usize {
        self.read_faults.len() + self.write_faults.len()
    }

    /// Injected readback faults not yet consumed. Write-only mitigation
    /// strategies (blind scrubbing) never perform readback, so these can
    /// sit latched forever without affecting their behaviour.
    pub fn pending_read_faults(&self) -> usize {
        self.read_faults.len()
    }

    /// Injected configuration-write faults not yet consumed.
    pub fn pending_write_faults(&self) -> usize {
        self.write_faults.len()
    }

    /// Tallies of port faults observed by the `try_*` operations and
    /// [`Device::port_reset`] since power-on.
    pub fn port_fault_stats(&self) -> PortFaultStats {
        self.port_faults
    }

    // ---- permanent faults --------------------------------------------------

    /// Inject a permanent stuck-at fault.
    pub fn inject_stuck_fault(&mut self, site: FaultSite, value: bool) {
        self.perm_faults.insert(site, value);
        self.invalidate();
    }

    /// Remove a permanent fault.
    pub fn remove_stuck_fault(&mut self, site: FaultSite) {
        self.perm_faults.remove(site);
        self.invalidate();
    }

    pub fn perm_faults(&self) -> &PermFaults {
        &self.perm_faults
    }

    // ---- user state -------------------------------------------------------

    /// Dense flip-flop state index.
    #[inline]
    pub fn ff_index(&self, tile: Tile, slice: usize, ff: usize) -> usize {
        (self.geom.tile_index(tile) * 2 + slice) * 2 + ff
    }

    /// Inverse of [`Device::ff_index`]: (tile, slice, ff) of a state
    /// index.
    pub(crate) fn ff_site(&self, idx: usize) -> (Tile, u8, u8) {
        let (slice, ff) = ((idx / 2 % 2) as u8, (idx % 2) as u8);
        (self.geom.tile_at(idx / 4), slice, ff)
    }

    /// Current value of a flip-flop.
    pub fn ff(&self, tile: Tile, slice: usize, ff: usize) -> bool {
        self.ff_state.get(self.ff_index(tile, slice, ff))
    }

    /// Force a flip-flop value (an SEU in user state, which the paper notes
    /// "can occur without disturbing the bitstream").
    pub fn set_ff(&mut self, tile: Tile, slice: usize, ff: usize, v: bool) {
        let idx = self.ff_index(tile, slice, ff);
        self.ff_state.set(idx, v);
    }

    /// BRAM output register value.
    pub fn bram_outreg(&self, col: usize, block: usize) -> u16 {
        self.bram_outreg[col * self.geom.bram_blocks_per_col() + block]
    }

    /// Cycles for which a content readback still owns the block's port
    /// (zero when the design has it).
    pub fn bram_lock_cycles(&self, col: usize, block: usize) -> u8 {
        self.bram_locked[col * self.geom.bram_blocks_per_col() + block]
    }

    // ---- reset -------------------------------------------------------------

    /// Pulse the global reset: every flip-flop loads its configured init
    /// value and BRAM output registers clear. Half-latches are *not*
    /// touched — only the full-configuration start-up sequence restores
    /// them.
    pub fn reset(&mut self) {
        for col in 0..self.geom.cols {
            // Each init bit sits at one position of its column's frames,
            // and row r's lies r tile slots past row 0's. A tile's four
            // flip-flops are adjacent in `ff_state`, in (slice, ff) order.
            let base = [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(slice, ff)| {
                self.config
                    .tile_bit_index(Tile::new(0, col), ff_init_offset(slice, ff))
            });
            for row in 0..self.geom.rows {
                let at = row * TILE_BITS_PER_FRAME;
                let inits = (0..4).fold(0, |v, k| {
                    v | (self.config.get_bit(base[k] + at) as u64) << k
                });
                let first = self.ff_index(Tile::new(row, col), 0, 0);
                self.ff_state.set_bits(first, 4, inits);
            }
        }
        self.bram_outreg.fill(0);
    }

    // ---- execution ----------------------------------------------------------

    /// Number of input ports the current configuration declares (max bound
    /// west-edge port + 1).
    pub fn num_inputs(&mut self) -> usize {
        self.ensure_compiled();
        self.compiled.as_ref().unwrap().num_inputs
    }

    /// Number of output ports the current configuration declares.
    pub fn num_outputs(&mut self) -> usize {
        self.ensure_compiled();
        self.compiled.as_ref().unwrap().outputs.len()
    }

    /// Advance one clock cycle with the given input-port values and return
    /// the output-port values. An unprogrammed device returns all-zero
    /// outputs and does not advance.
    pub fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        let mut out = Vec::new();
        self.step_into(inputs, &mut out);
        out
    }

    /// Allocation-free [`Device::step`]: outputs land in `out` (cleared
    /// first). Reusing one buffer across an observe window keeps the
    /// injection hot loop off the heap entirely.
    pub fn step_into(&mut self, inputs: &[bool], out: &mut Vec<bool>) {
        self.ensure_compiled();
        if !self.programmed {
            let n = self.compiled.as_ref().unwrap().outputs.len();
            out.clear();
            out.resize(n, false);
            return;
        }
        let mut c = self.compiled.take().expect("compiled network");
        engine::eval_cycle_into(&mut c, self, inputs, out);
        self.cycles += 1;
        self.compiled = Some(c);
    }

    pub(crate) fn ensure_compiled(&mut self) {
        if self.compiled.is_none() {
            self.compiled = Some(compile(self));
        }
    }

    /// Drop the compiled network and any network set aside
    /// (configuration memory or what the compile reads changed). The
    /// dynamic-LUT cache checks itself against frame stamps instead.
    pub(crate) fn invalidate(&mut self) {
        self.compiled = None;
        self.kept = None;
    }

    /// The running design wrote configuration memory (LUT-RAM, SRL16 or
    /// BRAM traffic): a network set aside before the write no longer
    /// matches it.
    pub(crate) fn note_design_write(&mut self) {
        self.design_wrote_config = true;
        self.kept = None;
    }

    /// Set the compiled network aside under `global`, the structural bit
    /// just flipped; the next step compiles the corrupted configuration.
    pub(crate) fn keep_network(&mut self, global: usize) {
        self.kept = self.compiled.take().map(|c| Box::new((global, c)));
    }

    /// If a network was set aside under `global`, which has just been
    /// flipped back, put it back with its LUT slots reset the way a
    /// fresh compile holds them, and return true. Any other flip drops it.
    pub(crate) fn restore_network(&mut self, global: usize) -> bool {
        match self.kept.take() {
            Some(kept) if kept.0 == global => {
                let (_, mut c) = *kept;
                c.reset_lut_slots();
                self.compiled = Some(c);
                true
            }
            _ => false,
        }
    }

    /// Statistics about the compiled network (for tests and reports).
    pub fn network_stats(&mut self) -> NetworkStats {
        self.ensure_compiled();
        let c = self.compiled.as_ref().unwrap();
        NetworkStats {
            luts: c.luts.len(),
            ffs: c.ffs.len(),
            brams: c.brams.len(),
            has_comb_cycles: c.iterative,
            half_latch_sites: c.hl_site_list.len(),
        }
    }
}

/// Summary of the currently-compiled logic network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkStats {
    /// Active LUTs in the output cone.
    pub luts: usize,
    /// Active flip-flops.
    pub ffs: usize,
    /// Active BRAM blocks.
    pub brams: usize,
    /// Whether corruption (or the design) created combinational cycles.
    pub has_comb_cycles: bool,
    /// Distinct half-latch sites the active logic depends on.
    pub half_latch_sites: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{BitRole, LutMode};
    use crate::fixtures::*;
    use crate::frames::BitLocus;

    /// Input vectors for ports 0 and 1: port 0 toggles on a phase, port
    /// 1 (the latch's set input) pulses on the first cycle only.
    fn stimulus(phase: usize, cycles: usize, set: bool) -> Vec<Vec<bool>> {
        let cycle = |c: usize| vec![(c + phase) % 3 != 1, set && c == 0];
        (0..cycles).map(cycle).collect()
    }

    /// Step `dut` and `oracle` together; outputs, flip-flops and BRAM
    /// output registers must match on every cycle.
    fn step_both(dut: &mut Device, oracle: &mut Device, inputs: &[Vec<bool>], what: &str) {
        for (c, iv) in inputs.iter().enumerate() {
            assert_eq!(dut.step(iv), oracle.step(iv), "{what}: outputs, cycle {c}");
            assert_eq!(
                dut.ff_state, oracle.ff_state,
                "{what}: flip-flops, cycle {c}"
            );
            assert_eq!(
                dut.bram_outreg, oracle.bram_outreg,
                "{what}: BRAM, cycle {c}"
            );
        }
    }

    /// True if flipping `bit` changes network structure (anything but a
    /// LUT table, flip-flop init, BRAM content, reserved or pad bit).
    fn structural(dev: &Device, bit: usize) -> bool {
        !matches!(
            dev.config.describe(bit),
            BitLocus::Clb {
                role: BitRole::LutTable { .. }
                    | BitRole::FfInit { .. }
                    | BitRole::SliceReserved { .. }
                    | BitRole::Pad,
                ..
            } | BitLocus::BramContent { .. }
        )
    }

    /// For every structural closure bit, one DUT runs flip → steps →
    /// flip → steps, the way a scalar experiment does; from the repair
    /// on it must match, cycle for cycle, a clone taken right after the
    /// repairing flip, which compiles afresh. Returns how many repairs
    /// put a kept network back.
    fn repair_matches_a_fresh_compile(cm: &crate::ConfigMemory) -> usize {
        let mut dut = configure(cm);
        let mut bits = dut.active_config_bits();
        bits.retain(|&b| structural(&dut, b));
        let mut restored = 0;
        for (k, &bit) in bits.iter().enumerate() {
            for iv in stimulus(k, 3, true) {
                dut.step(&iv);
            }
            dut.flip_config_bit(bit);
            assert!(
                dut.kept.is_some(),
                "bit {bit}: a structural flip keeps the network"
            );
            for iv in stimulus(k + 1, 5, false) {
                dut.step(&iv);
            }
            let kept = dut.kept.is_some();
            dut.flip_config_bit(bit);
            assert_eq!(
                dut.compiled.is_some(),
                kept,
                "bit {bit}: the repair restores"
            );
            restored += usize::from(kept);
            let mut oracle = dut.clone();
            let what = format!("bit {bit}");
            step_both(&mut dut, &mut oracle, &stimulus(k + 2, 12, false), &what);
        }
        restored
    }

    #[test]
    fn repair_restores_the_golden_network_of_an_acyclic_design() {
        let restored = repair_matches_a_fresh_compile(&tiny_config());
        assert!(restored > 1000, "{restored} repairs restored");
    }

    /// The latch's golden network is cyclic and holds its state in its
    /// LUT values: a restored network must start them where a fresh
    /// compile does.
    #[test]
    fn repair_restores_the_golden_network_of_a_cyclic_design() {
        let mut dev = configure(&latch_config());
        assert!(dev.network_stats().has_comb_cycles);
        let restored = repair_matches_a_fresh_compile(&latch_config());
        assert!(restored > 1000, "{restored} repairs restored");
    }

    /// An SRL16 and a LUT-RAM write their tables through to configuration
    /// memory on every enabled cycle: a corrupted run that writes drops
    /// the kept network, and the repair compiles again.
    #[test]
    fn a_design_write_during_the_corrupted_run_drops_the_kept_network() {
        for cm in [remode_config(LutMode::Shift), bram_chain_config()] {
            let mut dev = configure(&cm);
            dev.step(&[true, false]);
            let bit = dev
                .active_config_bits()
                .into_iter()
                .find(|&b| structural(&dev, b))
                .expect("a structural bit");
            dev.flip_config_bit(bit);
            assert!(dev.kept.is_some());
            dev.design_wrote_config = false;
            for _ in 0..16 {
                dev.step(&[true, false]);
            }
            assert!(dev.design_wrote_config, "the corrupted design writes");
            assert!(dev.kept.is_none(), "the write drops the kept network");
            repair_matches_a_fresh_compile(&cm);
        }
    }

    /// Upsetting and recovering each half-latch the network reads, between
    /// steps and across a kept network's repair, matches a clone taken
    /// after each change, which compiles afresh from the latches.
    #[test]
    fn half_latch_changes_patch_the_compiled_network() {
        for cm in [tiny_config(), remode_config(LutMode::Ram)] {
            let mut dut = configure(&cm);
            let sites = dut.active_half_latch_sites();
            assert!(!sites.is_empty());
            let bit = dut
                .active_config_bits()
                .into_iter()
                .find(|&b| structural(&dut, b))
                .expect("a structural bit");
            for (k, site) in sites.into_iter().enumerate() {
                let what = format!("{site:?}");
                dut.step(&[true, false]);
                dut.upset_half_latch(site);
                let mut oracle = dut.clone();
                step_both(&mut dut, &mut oracle, &stimulus(k, 6, false), &what);
                dut.recover_half_latch(site);
                let mut oracle = dut.clone();
                step_both(&mut dut, &mut oracle, &stimulus(k, 6, false), &what);
                // A latch change drops a kept network, whose slots it
                // would leave stale.
                dut.flip_config_bit(bit);
                dut.upset_half_latch(site);
                dut.flip_config_bit(bit);
                assert!(dut.compiled.is_none() && dut.kept.is_none());
                let mut oracle = dut.clone();
                step_both(&mut dut, &mut oracle, &stimulus(k, 6, false), &what);
                dut.recover_half_latch(site);
            }
        }
    }
}
