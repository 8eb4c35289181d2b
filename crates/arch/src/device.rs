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

use crate::bitvec::BitVec;
use crate::compile::{compile, Compiled};
use crate::engine;
use crate::frames::ConfigMemory;
use crate::geometry::{Geometry, Tile};
use crate::halflatch::{HalfLatches, HlSite};
use std::collections::VecDeque;

use crate::permfault::{FaultSite, PermFaults};
use crate::selectmap::{PortTiming, ReadFault, WriteFault};
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
    /// Cache of the LUTs configured as RAM or SRL16 — the sites the
    /// readback hazard corrupts. Entry `tile_index(tile)` holds bit
    /// `slice * 2 + lut` per dynamic LUT. Derived from the mode bits
    /// alone, so it is dropped wherever a mode bit can change
    /// ([`Device::invalidate`], [`Device::config_mut`],
    /// [`Device::flip_config_bit`]) and rebuilt on the next CLB readback.
    pub(crate) dynamic_luts: Option<Vec<u8>>,
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
            // The compiled network and the dynamic-LUT sites are caches;
            // rebuild lazily in the clone.
            compiled: None,
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

    /// Mutable configuration memory access. Invalidates the compiled
    /// network — use the frame-level [`crate::selectmap`] operations to
    /// model real configuration-port traffic.
    pub fn config_mut(&mut self) -> &mut ConfigMemory {
        self.invalidate();
        &mut self.config
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

    /// Clear the [`Device::design_wrote_config`] flag (e.g. after restoring
    /// the configuration image).
    pub fn clear_design_wrote_config(&mut self) {
        self.design_wrote_config = false;
    }

    /// Clock *every* flip-flop on the device, not only those inside output
    /// cones — matches real hardware for diagnostics that observe state
    /// via readback capture (BIST). Slower; off by default.
    pub fn set_compile_all_state(&mut self, v: bool) {
        if self.compile_all_state != v {
            self.compile_all_state = v;
            self.compiled = None;
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
    }

    /// Spontaneously recover the half-latch at `site`.
    pub fn recover_half_latch(&mut self, site: HlSite) {
        self.half_latches.recover(site);
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
        self.compiled = None;
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
    /// [`Device::port_reset`] since power-on (or since the last
    /// [`Device::clear_port_fault_stats`]).
    pub fn port_fault_stats(&self) -> PortFaultStats {
        self.port_faults
    }

    /// Zero the port-fault tallies (e.g. between campaign experiments).
    pub fn clear_port_fault_stats(&mut self) {
        self.port_faults = PortFaultStats::default();
    }

    // ---- permanent faults --------------------------------------------------

    /// Inject a permanent stuck-at fault.
    pub fn inject_stuck_fault(&mut self, site: FaultSite, value: bool) {
        self.perm_faults.insert(site, value);
        self.compiled = None;
    }

    /// Remove a permanent fault.
    pub fn remove_stuck_fault(&mut self, site: FaultSite) {
        self.perm_faults.remove(site);
        self.compiled = None;
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

    // ---- reset -------------------------------------------------------------

    /// Pulse the global reset: every flip-flop loads its configured init
    /// value and BRAM output registers clear. Half-latches are *not*
    /// touched — only the full-configuration start-up sequence restores
    /// them.
    pub fn reset(&mut self) {
        for ti in 0..self.geom.num_tiles() {
            let tile = self.geom.tile_at(ti);
            for slice in 0..2 {
                for ff in 0..2 {
                    let init = self.config.read_tile_field(
                        tile,
                        crate::bits::ff_init_offset(slice, ff),
                        1,
                    ) != 0;
                    let idx = self.ff_index(tile, slice, ff);
                    self.ff_state.set(idx, init);
                }
            }
        }
        for r in self.bram_outreg.iter_mut() {
            *r = 0;
        }
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

    /// Sample the outputs without advancing the clock (combinational
    /// settle only).
    pub fn sample_outputs(&mut self, inputs: &[bool]) -> Vec<bool> {
        let mut out = Vec::new();
        self.sample_outputs_into(inputs, &mut out);
        out
    }

    /// Allocation-free [`Device::sample_outputs`] (see [`Device::step_into`]).
    pub fn sample_outputs_into(&mut self, inputs: &[bool], out: &mut Vec<bool>) {
        self.ensure_compiled();
        if !self.programmed {
            let n = self.compiled.as_ref().unwrap().outputs.len();
            out.clear();
            out.resize(n, false);
            return;
        }
        let mut c = self.compiled.take().expect("compiled network");
        engine::settle_outputs_into(&mut c, self, inputs, out);
        self.compiled = Some(c);
    }

    pub(crate) fn ensure_compiled(&mut self) {
        if self.compiled.is_none() {
            self.compiled = Some(compile(self));
        }
    }

    /// Invalidate the caches derived from configuration memory (it
    /// changed): the compiled network and the dynamic-LUT sites.
    pub(crate) fn invalidate(&mut self) {
        self.compiled = None;
        self.dynamic_luts = None;
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
