//! Word-parallel (64-lane) batch evaluation of a compiled network — the
//! classic parallel-fault-simulation technique (PPSFP: parallel-pattern /
//! parallel-fault single-fault propagation, here one *fault* per lane).
//!
//! Every signal in the compiled network is evaluated as a `u64` whose bit
//! `l` is the value seen by lane `l`. Lane 0 always runs the golden
//! (uncorrupted) configuration; lanes 1..64 each carry one independent
//! single-bit-upset experiment. Output divergence for a lane is then a
//! single `XOR` against the golden trace — 63 injection experiments
//! advance per [`WideEngine::step`], which is what makes exhaustive
//! campaigns cheap enough to run interactively (paper §III's hardware made
//! the same move with a dedicated comparator FPGA).
//!
//! A lane carries what [`DeltaMap::classify`], the campaign's triage, calls
//! a lane upset: a state overlay (a LUT truth-table, flip-flop init or
//! BRAM content bit XORed into the lane-packed state), or a reroute
//! (lane-masked source overrides, with reach masks freezing the nodes the
//! lane's corrupted network drops). [`WideEngine::with_map`] runs the
//! map's augmented network: its nodes past the golden cone hold still in
//! every lane that does not reach them, and are evaluated only in batches
//! where some lane does. Bits the triage calls structural take the scalar
//! path instead.
//!
//! Evaluation mirrors `engine::eval_cycle_into` phase for phase: settle,
//! output sample, FF next-state, BRAM port operations (write-first), dynamic
//! LUT writes (RAM / SRL16), FF commit. Settle is one sweep in topological
//! order; a batch holding a lane whose edges run against that order
//! repeats the sweep until no reached lane word changes, the unique
//! solution of an acyclic network. Per-lane truth tables are held as 16
//! minterm bit-planes and evaluated by Shannon reduction on the four
//! lane-packed pin words, which uniformly handles corrupted-table lanes and
//! run-time LUT writes.
//!
//! Operands are gathered by index: one lane word per slot of the
//! network's slot layout (`compile::Layout`), in one `vals` array. The
//! constant and half-latch slots are filled once, from the device the
//! engine is built from, and never change. The input slots are written at
//! the start of every step (a port the stimulus does not carry reads 0).
//! The LUT, FF and BRAM-register regions are the batch's evolving state,
//! reset by every batch load. A BRAM port's new register lands in its
//! slots at once, so later ports and LUT-RAM writes in the same step read
//! it, while FF next-state was sampled before. Lane overrides are lowered
//! to slots when a batch loads: a half-latch override folds to a constant
//! by the build device's latches, and an input port only an override
//! names gets a slot pair past the layout.

use crate::bits::LutMode;
use crate::compile::{const_slot, Compiled, NodeCounts, Root, Src, ONE_SLOT};
use crate::delta::{reach, DeltaMap, DeltaOp, LaneUpset, UpsetKind};
use crate::device::Device;
use crate::geometry::BRAM_DEPTH;
use crate::halflatch::HlSite;

/// Experiments per batch including the golden lane 0.
pub const LANES: usize = 64;

/// A single-bit upset expressed as a lane overlay on the packed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WideTarget {
    /// Bit `bit` of compiled LUT `lut`'s truth table.
    LutTable { lut: u32, bit: u8 },
    /// The init/set-reset value of compiled flip-flop `ff`.
    FfInit { ff: u32 },
    /// Bit `plane` of word `addr` of compiled BRAM block `mem`.
    BramBit { mem: u32, addr: u16, plane: u8 },
}

#[inline]
fn splat(b: bool) -> u64 {
    if b {
        !0
    } else {
        0
    }
}

/// Iterate over the set bit positions of `w`.
#[inline]
fn ones(mut w: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if w == 0 {
            None
        } else {
            let l = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(l)
        }
    })
}

/// Expand a scalar truth table into 16 lane-broadcast minterm planes.
#[inline]
fn broadcast_table(t: u16) -> [u64; 16] {
    let mut p = [0u64; 16];
    for (m, plane) in p.iter_mut().enumerate() {
        *plane = splat((t >> m) & 1 == 1);
    }
    p
}

/// Get-or-create the override slot for node `i`.
fn ov_mut<'a, T: Default>(idx: &mut [u32], ovs: &'a mut Vec<T>, i: u32) -> &'a mut T {
    if idx[i as usize] == u32::MAX {
        idx[i as usize] = ovs.len() as u32;
        ovs.push(T::default());
    }
    &mut ovs[idx[i as usize] as usize]
}

/// The override slot for node `i`, if it has one.
fn ov<'a, T>(idx: &[u32], ovs: &'a [T], i: u32) -> Option<&'a T> {
    ovs.get(idx[i as usize] as usize)
}

/// True if `a` and `b` currently compile to behaviourally identical
/// networks: same LUTs (pins, modes, tables), flip-flops, BRAM ports,
/// output bindings and input count. Because the evaluation engine reads
/// configuration memory only through the compiled network and BRAM
/// content words, equal topologies on devices with equal BRAM content are
/// guaranteed to produce identical traces. (Scratch state and the
/// closure-analysis fields are deliberately not compared.)
pub fn same_topology(a: &mut Device, b: &mut Device) -> bool {
    a.ensure_compiled();
    b.ensure_compiled();
    let ca = a.compiled.as_ref().unwrap();
    let cb = b.compiled.as_ref().unwrap();
    ca.num_inputs == cb.num_inputs
        && ca.outputs == cb.outputs
        && ca.luts == cb.luts
        && ca.ffs == cb.ffs
        && ca.brams == cb.brams
}

/// A lane-masked source override: (lanes, source, the slot it reads).
type Ov = (u64, Src, u32);

/// Per-LUT lane-masked source overrides installed by reroute upsets.
/// Each entry rebinds the source for the lanes in its mask; masks from
/// different lanes are disjoint, so application order is irrelevant.
#[derive(Debug, Clone, Default)]
struct LutOv {
    pins: [Vec<Ov>; 4],
    data: Vec<Ov>,
    we: Vec<Ov>,
}

#[derive(Debug, Clone, Default)]
struct FfOv {
    d: Vec<Ov>,
    ce: Vec<Ov>,
    sr: Vec<Ov>,
}

#[derive(Debug, Clone, Default)]
struct BramOv {
    addr: [Vec<Ov>; 8],
    din: [Vec<Ov>; 16],
    we: Vec<Ov>,
    en: Vec<Ov>,
}

/// One lane's replacement output vector: (lane, corrupted outputs as
/// (slot, invert), reachability seeds — the sources of every enabled east
/// entry in the lane's corrupted configuration, shadowed bindings
/// included).
type OutOverride = (u8, Vec<(u32, bool)>, Vec<Src>);

/// The word-parallel engine: a network snapshot plus lane-packed dynamic
/// state for one batch of up to [`LANES`]` - 1` experiments.
#[derive(Debug, Clone)]
pub struct WideEngine {
    net: Compiled,
    /// Golden node counts: ids at or past them are out-of-cone nodes of
    /// an augmented network.
    golden: NodeCounts,
    /// Settle order of the golden cone.
    golden_order: Vec<u32>,
    /// The build device's upset half-latches, sorted: a half-latch
    /// override folds to a constant by it.
    upset_latches: Vec<HlSite>,
    /// (port, plain slot) of every input port with a slot pair: the
    /// layout's, then any port only an override names, past the layout.
    input_slots: Vec<(u16, u32)>,
    /// Golden truth table per compiled LUT (batch reset source).
    golden_tables: Vec<u16>,
    /// Golden init value per compiled FF.
    golden_init: Vec<bool>,
    /// Golden BRAM content per compiled block, 256 words each.
    golden_mem: Vec<Vec<u16>>,

    // ---- the current batch's schedule ------------------------------------
    /// LUTs to settle, in order: the golden cone plus the out-of-cone LUTs
    /// some lane reaches.
    order: Vec<u32>,
    /// Flip-flops and BRAM blocks to clock, on the same rule.
    ffs: Vec<u32>,
    brams: Vec<u32>,
    /// Some lane's edges run against `order`: settle repeats to a fixpoint.
    resweep: bool,
    /// A batch clocked out-of-cone state, so the next load resets it.
    ext_dirty: bool,

    // ---- lane-packed state, rebuilt per batch ---------------------------
    /// One lane word per slot of the network's layout: constants, inputs
    /// and half-latches, then the LUT values, FF values and BRAM output
    /// registers (16 data-bit planes per block) the batch evolves.
    vals: Vec<u64>,
    /// Truth tables as 16 minterm planes per LUT.
    tab: Vec<[u64; 16]>,
    ff_next: Vec<u64>,
    ff_init: Vec<u64>,
    /// BRAM content as 16 planes per word per block.
    mem: Vec<Vec<[u64; 16]>>,

    /// State-overlay upsets as (lane, target) pairs.
    state_targets: Vec<(u8, WideTarget)>,
    /// Per-LUT override slot (`u32::MAX` = none) into `lut_ovs`.
    lut_ov: Vec<u32>,
    lut_ovs: Vec<LutOv>,
    ff_ov: Vec<u32>,
    ff_ovs: Vec<FfOv>,
    bram_ov: Vec<u32>,
    bram_ovs: Vec<BramOv>,
    /// Per-lane replacement output vectors.
    out_ovs: Vec<OutOverride>,
    /// Reach masks: bit `l` set ⇒ lane `l`'s network holds the node, so
    /// its dynamic state advances. Golden nodes start held by every lane
    /// and out-of-cone nodes by none; a reroute lane's reachability pass
    /// sets its own bit (the scalar corrupted compile keeps only the cone
    /// of its outputs).
    lut_active: Vec<u64>,
    ff_active: Vec<u64>,
    bram_active: Vec<u64>,
    /// Per golden output port: lanes whose corrupted network still drives
    /// this port (comparison against the golden trace is meaningful).
    valid_out: Vec<u64>,
    /// Lanes whose corrupted output vector differs in *length* from the
    /// golden one — the scalar comparator flags every cycle for these.
    len_diff: u64,
    has_reroute: bool,
    /// Diagnostics mode: every flip-flop is compiled unconditionally, so
    /// reroutes can never drop one from the cone.
    all_state: bool,
    repaired: bool,
}

impl WideEngine {
    /// Snapshot `dev`'s compiled network. Returns `None` when the wide
    /// engine cannot faithfully reproduce the scalar semantics: an
    /// unprogrammed device, a network with combinational cycles (the
    /// scalar engine's relaxation is warm-start history dependent), or a
    /// BRAM block locked by an in-flight readback.
    pub fn new(dev: &mut Device) -> Option<WideEngine> {
        if !Self::supports(dev) {
            return None;
        }
        let net = dev.compiled.as_ref().expect("compiled").clone();
        let golden = NodeCounts::of(&net);
        Some(Self::from_net(dev, net, golden))
    }

    /// The engine over `map`'s augmented network, which can carry every
    /// lane upset `map` classifies. `dev` must hold the golden
    /// configuration `map` was built from; `None` on the same grounds as
    /// [`WideEngine::new`].
    pub fn with_map(dev: &mut Device, map: &DeltaMap) -> Option<WideEngine> {
        if !Self::supports(dev) {
            return None;
        }
        Some(Self::from_net(dev, map.net.clone(), map.golden))
    }

    fn supports(dev: &mut Device) -> bool {
        if !dev.is_programmed() {
            return false;
        }
        dev.ensure_compiled();
        !dev.bram_locked.iter().any(|&l| l > 0)
            && !dev.compiled.as_ref().expect("compiled").iterative
    }

    fn from_net(dev: &Device, net: Compiled, golden: NodeCounts) -> WideEngine {
        let golden_tables: Vec<u16> = net.luts.iter().map(|l| l.table).collect();
        let golden_init: Vec<bool> = net.ffs.iter().map(|f| f.init).collect();
        let golden_mem: Vec<Vec<u16>> = net
            .brams
            .iter()
            .map(|b| {
                (0..BRAM_DEPTH)
                    .map(|a| {
                        dev.config
                            .read_bram_word(b.col as usize, b.block as usize, a)
                    })
                    .collect()
            })
            .collect();
        let golden_order: Vec<u32> = net
            .order
            .iter()
            .copied()
            .filter(|&i| (i as usize) < golden.luts)
            .collect();

        let n_luts = net.luts.len();
        let n_ffs = net.ffs.len();
        let n_brams = net.brams.len();
        let n_outputs = net.outputs.len();
        let held = |n: usize, g: usize| (0..n).map(|i| splat(i < g)).collect::<Vec<u64>>();
        // Constants and half-latches never change: fill them once.
        let l = net.layout;
        let mut vals = vec![0u64; l.len as usize];
        vals[ONE_SLOT as usize] = !0;
        for (k, &site) in net.hl_site_list.iter().enumerate() {
            let v = splat(dev.half_latches.value(site));
            vals[l.half_latches as usize + 2 * k] = v;
            vals[l.half_latches as usize + 2 * k + 1] = !v;
        }
        let mut upset_latches = dev.upset_half_latch_sites();
        upset_latches.sort_unstable();
        WideEngine {
            upset_latches,
            input_slots: (0..net.num_inputs as u16)
                .map(|p| (p, l.inputs + 2 * p as u32))
                .collect(),
            vals,
            golden_tables,
            golden_init,
            golden_mem,
            order: golden_order.clone(),
            golden_order,
            ffs: (0..golden.ffs as u32).collect(),
            brams: (0..golden.brams as u32).collect(),
            resweep: false,
            ext_dirty: true,
            tab: vec![[0u64; 16]; n_luts],
            ff_next: vec![0; n_ffs],
            ff_init: vec![0; n_ffs],
            mem: vec![vec![[0u64; 16]; BRAM_DEPTH]; n_brams],
            state_targets: Vec::new(),
            lut_ov: vec![u32::MAX; n_luts],
            lut_ovs: Vec::new(),
            ff_ov: vec![u32::MAX; n_ffs],
            ff_ovs: Vec::new(),
            bram_ov: vec![u32::MAX; n_brams],
            bram_ovs: Vec::new(),
            out_ovs: Vec::new(),
            lut_active: held(n_luts, golden.luts),
            ff_active: held(n_ffs, golden.ffs),
            bram_active: held(n_brams, golden.brams),
            valid_out: vec![!0u64; n_outputs],
            len_diff: 0,
            has_reroute: false,
            all_state: dev.compile_all_state,
            repaired: true,
            golden,
            net,
        }
    }

    /// Number of output ports the network drives.
    pub fn num_outputs(&self) -> usize {
        self.net.outputs.len()
    }

    /// Experiments one batch can carry (lane 0 is the golden reference).
    pub fn batch_capacity(&self) -> usize {
        LANES - 1
    }

    /// Reset all lanes to the golden power-on state and corrupt lane
    /// `i + 1` with `targets[i]`. State-overlay-only convenience wrapper
    /// around [`WideEngine::load_batch_upsets`].
    pub fn load_batch(&mut self, targets: &[WideTarget]) {
        let ups: Vec<LaneUpset> = targets.iter().map(|&t| LaneUpset::state(t)).collect();
        self.load_batch_upsets(&ups);
    }

    /// Reset all lanes to the golden power-on state (FFs at init, BRAM
    /// output registers clear, golden tables and content) and corrupt
    /// lane `i + 1` with `upsets[i]` — a state overlay (lane-masked XOR)
    /// or a reroute (lane-masked source overrides plus reach masks for
    /// the nodes the corrupted cone holds). At most [`LANES`]` - 1`,
    /// classified by the map this engine was built with
    /// ([`WideEngine::with_map`]); a plain [`WideEngine::new`] engine
    /// carries only lanes that stay inside the golden cone.
    pub fn load_batch_upsets(&mut self, upsets: &[LaneUpset]) {
        assert!(
            upsets.len() < LANES,
            "batch of {} exceeds {} experiment lanes",
            upsets.len(),
            LANES - 1
        );
        // Out-of-cone state changes only in batches that clock it.
        let n = if std::mem::take(&mut self.ext_dirty) {
            NodeCounts::of(&self.net)
        } else {
            self.golden
        };
        for (tab, &t) in self.tab[..n.luts].iter_mut().zip(&self.golden_tables) {
            *tab = broadcast_table(t);
        }
        let l = self.net.layout;
        self.vals[l.luts as usize..l.ffs as usize].fill(0);
        for (i, &init) in self.golden_init[..n.ffs].iter().enumerate() {
            self.vals[l.ffs as usize + i] = splat(init);
            self.ff_init[i] = splat(init);
        }
        self.ff_next.fill(0);
        self.vals[l.brams as usize..][..16 * n.brams].fill(0);
        for bi in 0..n.brams {
            for (word, &w) in self.mem[bi].iter_mut().zip(&self.golden_mem[bi]) {
                *word = broadcast_table(w);
            }
        }
        self.clear_reroutes();
        self.state_targets.clear();
        for (i, u) in upsets.iter().enumerate() {
            let lane = (i + 1) as u8;
            match &u.0 {
                UpsetKind::State(t) => self.state_targets.push((lane, *t)),
                UpsetKind::Reroute { ops, resweep, .. } => {
                    self.install_ops(lane, ops);
                    self.has_reroute = true;
                    self.resweep |= resweep;
                }
            }
        }
        self.apply_state_overlays();
        if self.has_reroute {
            let reroutes = upsets.iter().enumerate().fold(0u64, |m, (i, u)| {
                m | (u64::from(matches!(u.0, UpsetKind::Reroute { .. })) << (i + 1))
            });
            self.apply_reachability(reroutes);
            self.schedule_reached();
        }
        self.repaired = false;
    }

    /// Undo every lane's corruption — the batched analogue of the repair
    /// `flip_config_bit`. State overlays are an XOR, not a
    /// restore-to-golden: a dynamic resource may have overwritten the
    /// corrupted cell during the observe window, and the scalar repair
    /// likewise flips whatever is there now. Reroute lanes drop their
    /// source overrides and return to the golden reach masks — the scalar
    /// repair recompiles back to the golden network with the device state
    /// (including state the frozen or out-of-cone nodes hold) carried
    /// over. Dynamic state is deliberately kept in both cases, so the
    /// persistence window continues from the post-upset state exactly like
    /// the scalar path.
    pub fn repair(&mut self) {
        if !self.repaired {
            self.apply_state_overlays();
            self.clear_reroutes();
            self.repaired = true;
        }
    }

    fn clear_reroutes(&mut self) {
        if self.has_reroute {
            let g = self.golden;
            self.lut_ov.fill(u32::MAX);
            self.lut_ovs.clear();
            self.ff_ov.fill(u32::MAX);
            self.ff_ovs.clear();
            self.bram_ov.fill(u32::MAX);
            self.bram_ovs.clear();
            self.out_ovs.clear();
            for (masks, g) in [
                (&mut self.lut_active, g.luts),
                (&mut self.ff_active, g.ffs),
                (&mut self.bram_active, g.brams),
            ] {
                masks[..g].fill(!0);
                masks[g..].fill(0);
            }
            if self.order.len() != self.golden_order.len() {
                self.order.clone_from(&self.golden_order);
            }
            self.ffs.truncate(g.ffs);
            self.brams.truncate(g.brams);
            self.valid_out.fill(!0);
            self.len_diff = 0;
            self.resweep = false;
            self.has_reroute = false;
        }
    }

    fn apply_state_overlays(&mut self) {
        for &(lane, t) in &self.state_targets {
            let m = 1u64 << lane;
            match t {
                WideTarget::LutTable { lut, bit } => self.tab[lut as usize][bit as usize] ^= m,
                WideTarget::FfInit { ff } => self.ff_init[ff as usize] ^= m,
                WideTarget::BramBit { mem, addr, plane } => {
                    self.mem[mem as usize][addr as usize][plane as usize] ^= m
                }
            }
        }
    }

    /// The override list of `root`, created on first use.
    fn ov_list(&mut self, root: Root) -> &mut Vec<Ov> {
        match root {
            Root::LutPin { lut, pin } => {
                &mut ov_mut(&mut self.lut_ov, &mut self.lut_ovs, lut).pins[pin as usize]
            }
            Root::LutData { lut } => &mut ov_mut(&mut self.lut_ov, &mut self.lut_ovs, lut).data,
            Root::LutWe { lut } => &mut ov_mut(&mut self.lut_ov, &mut self.lut_ovs, lut).we,
            Root::FfD { ff } => &mut ov_mut(&mut self.ff_ov, &mut self.ff_ovs, ff).d,
            Root::FfCe { ff } => &mut ov_mut(&mut self.ff_ov, &mut self.ff_ovs, ff).ce,
            Root::FfSr { ff } => &mut ov_mut(&mut self.ff_ov, &mut self.ff_ovs, ff).sr,
            Root::BramAddr { bram, i } => {
                &mut ov_mut(&mut self.bram_ov, &mut self.bram_ovs, bram).addr[i as usize]
            }
            Root::BramDin { bram, i } => {
                &mut ov_mut(&mut self.bram_ov, &mut self.bram_ovs, bram).din[i as usize]
            }
            Root::BramWe { bram } => &mut ov_mut(&mut self.bram_ov, &mut self.bram_ovs, bram).we,
            Root::BramEn { bram } => &mut ov_mut(&mut self.bram_ov, &mut self.bram_ovs, bram).en,
            Root::OutEntry { .. } => unreachable!("output entries rebind through DeltaOp::Outputs"),
        }
    }

    /// The overrides installed on `root` (empty if none).
    fn ovs(&self, root: Root) -> &[Ov] {
        let list = match root {
            Root::LutPin { lut, pin } => {
                ov(&self.lut_ov, &self.lut_ovs, lut).map(|o| &o.pins[pin as usize])
            }
            Root::LutData { lut } => ov(&self.lut_ov, &self.lut_ovs, lut).map(|o| &o.data),
            Root::LutWe { lut } => ov(&self.lut_ov, &self.lut_ovs, lut).map(|o| &o.we),
            Root::FfD { ff } => ov(&self.ff_ov, &self.ff_ovs, ff).map(|o| &o.d),
            Root::FfCe { ff } => ov(&self.ff_ov, &self.ff_ovs, ff).map(|o| &o.ce),
            Root::FfSr { ff } => ov(&self.ff_ov, &self.ff_ovs, ff).map(|o| &o.sr),
            Root::BramAddr { bram, i } => {
                ov(&self.bram_ov, &self.bram_ovs, bram).map(|o| &o.addr[i as usize])
            }
            Root::BramDin { bram, i } => {
                ov(&self.bram_ov, &self.bram_ovs, bram).map(|o| &o.din[i as usize])
            }
            Root::BramWe { bram } => ov(&self.bram_ov, &self.bram_ovs, bram).map(|o| &o.we),
            Root::BramEn { bram } => ov(&self.bram_ov, &self.bram_ovs, bram).map(|o| &o.en),
            Root::OutEntry { .. } => None,
        };
        list.map_or(&[], |l| &l[..])
    }

    /// The slot an override source reads. A half-latch folds to a
    /// constant, since this engine's latch values never change; an input
    /// port the network never reads gets a slot pair past the layout.
    fn ov_slot(&mut self, s: Src) -> u32 {
        match s {
            Src::HalfLatch { site, invert } => {
                const_slot(self.upset_latches.binary_search(&site).is_err() ^ invert)
            }
            Src::Input { port, invert } if self.net.slot(s).is_none() => {
                let plain = match self.input_slots.iter().find(|&&(p, _)| p == port) {
                    Some(&(_, at)) => at,
                    None => {
                        let at = self.vals.len() as u32;
                        self.vals.extend([0, !0]);
                        self.input_slots.push((port, at));
                        at
                    }
                };
                plain + invert as u32
            }
            _ => self.net.slot(s).expect("a network node or constant"),
        }
    }

    /// Record one reroute lane's ops as lane-masked overrides.
    fn install_ops(&mut self, lane: u8, ops: &[DeltaOp]) {
        let m = 1u64 << lane;
        for op in ops {
            match op {
                DeltaOp::Rebind(root, src) => {
                    let slot = self.ov_slot(*src);
                    self.ov_list(*root).push((m, *src, slot));
                }
                DeltaOp::Outputs { outs, seeds } => {
                    let gl = self.net.outputs.len();
                    if outs.len() != gl {
                        self.len_diff |= m;
                    }
                    // Golden ports the lane no longer drives drop out of
                    // the comparison (the scalar comparator zips only the
                    // common prefix).
                    for valid in self.valid_out.iter_mut().skip(outs.len().min(gl)) {
                        *valid &= !m;
                    }
                    let outs = outs
                        .iter()
                        .map(|&(s, inv)| (self.ov_slot(s), inv))
                        .collect();
                    self.out_ovs.push((lane, outs, seeds.clone()));
                }
            }
        }
    }

    /// Set the reroute lanes' reach masks to the nodes their corrupted
    /// networks hold: one pass from each lane's outputs over the network
    /// with that lane's source overrides applied, all lanes at once. The
    /// scalar corrupted compile only keeps the cone of the (corrupted)
    /// outputs; anything outside it holds its state — FFs don't clock,
    /// dynamic LUT tables don't shift, BRAM ports neither write nor latch
    /// — until repair restores the golden cone.
    fn apply_reachability(&mut self, reroutes: u64) {
        // A lane with a replacement output vector seeds every enabled
        // entry's cone — also shadowed ones, which the compiler still
        // traces and keeps clocking.
        let rebound = self.out_ovs.iter().fold(0u64, |m, &(l, _, _)| m | 1 << l);
        let mut seeds: Vec<(Src, u64)> = self
            .net
            .outputs
            .iter()
            .map(|&(s, _)| (s, reroutes & !rebound))
            .collect();
        for (lane, _, lane_seeds) in &self.out_ovs {
            seeds.extend(lane_seeds.iter().map(|&s| (s, 1u64 << lane)));
        }
        // Diagnostics mode compiles every flip-flop unconditionally, so a
        // reroute can never drop one.
        if self.all_state {
            seeds.extend((0..self.net.ffs.len() as u32).map(|i| (Src::Ff(i), reroutes)));
        }
        let r = reach(&self.net, &seeds, |root| {
            self.ovs(root).iter().map(|&(lanes, src, _)| (lanes, src))
        });
        for (active, held) in [
            (&mut self.lut_active, &r.luts),
            (&mut self.ff_active, &r.ffs),
            (&mut self.bram_active, &r.brams),
        ] {
            for (a, &h) in active.iter_mut().zip(held) {
                *a = (*a & !reroutes) | (h & reroutes);
            }
        }
    }

    /// Add the out-of-cone nodes some lane reaches to the batch schedule.
    fn schedule_reached(&mut self) {
        let g = self.golden;
        let ffs = (g.ffs..self.ff_active.len()).filter(|&i| self.ff_active[i] != 0);
        self.ffs.extend(ffs.map(|i| i as u32));
        let brams = (g.brams..self.bram_active.len()).filter(|&i| self.bram_active[i] != 0);
        self.brams.extend(brams.map(|i| i as u32));
        if self.lut_active[g.luts..].iter().any(|&m| m != 0) {
            let active = &self.lut_active;
            self.order = self
                .net
                .order
                .iter()
                .copied()
                .filter(|&i| (i as usize) < g.luts || active[i as usize] != 0)
                .collect();
        }
        self.ext_dirty |=
            self.order.len() > g.luts || self.ffs.len() > g.ffs || self.brams.len() > g.brams;
    }

    /// Per golden output port, the lanes whose comparison against the
    /// golden trace is meaningful for the current batch.
    pub fn out_valid_masks(&self) -> &[u64] {
        &self.valid_out
    }

    /// Lanes whose corrupted output vector differs in length from the
    /// golden one — divergent on every cycle by the scalar comparator's
    /// rules, regardless of port values.
    pub fn len_diff_mask(&self) -> u64 {
        self.len_diff
    }

    /// The lane word in `slot` with lane-masked overrides applied on top.
    #[inline]
    fn oval(&self, slot: u32, ovs: &[Ov]) -> u64 {
        let mut v = self.vals[slot as usize];
        for &(m, _, s) in ovs {
            v = (v & !m) | (self.vals[s as usize] & m);
        }
        v
    }

    /// Gather the 4 lane-packed pin words of LUT `li`.
    #[inline]
    fn pin_words(&self, li: usize) -> [u64; 4] {
        let pins = self.net.lut_pins[li];
        let oi = self.lut_ov[li];
        if oi == u32::MAX {
            pins.map(|s| self.vals[s as usize])
        } else {
            let ov = &self.lut_ovs[oi as usize];
            [0, 1, 2, 3].map(|p| self.oval(pins[p], &ov.pins[p]))
        }
    }

    /// LUT `li`'s lane-packed output: Shannon reduction of its 16 minterm
    /// planes by the 4 pin words.
    #[inline]
    fn lut_out(&self, li: usize) -> u64 {
        let p = self.pin_words(li);
        let t = &self.tab[li];
        let mut s8 = [0u64; 8];
        for (j, s) in s8.iter_mut().enumerate() {
            *s = (t[2 * j] & !p[0]) | (t[2 * j + 1] & p[0]);
        }
        let mut s4 = [0u64; 4];
        for (j, s) in s4.iter_mut().enumerate() {
            *s = (s8[2 * j] & !p[1]) | (s8[2 * j + 1] & p[1]);
        }
        let s2 = [
            (s4[0] & !p[2]) | (s4[1] & p[2]),
            (s4[2] & !p[2]) | (s4[3] & p[2]),
        ];
        (s2[0] & !p[3]) | (s2[1] & p[3])
    }

    /// Settle combinational logic: one sweep in topological order, or —
    /// when some lane's edges run against it — sweeps until no lane word
    /// of a node that lane holds changes. Every lane's held network is
    /// acyclic, so that fixpoint is its one combinational solution.
    fn settle(&mut self) {
        let base = self.net.layout.luts as usize;
        if !self.resweep {
            for k in 0..self.order.len() {
                let li = self.order[k] as usize;
                self.vals[base + li] = self.lut_out(li);
            }
            return;
        }
        for _ in 0..=self.order.len() {
            let mut changed = 0u64;
            for k in 0..self.order.len() {
                let li = self.order[k] as usize;
                let v = self.lut_out(li);
                changed |= (v ^ self.vals[base + li]) & self.lut_active[li];
                self.vals[base + li] = v;
            }
            if changed == 0 {
                return;
            }
        }
        unreachable!("an acyclic lane network settles within one sweep per LUT");
    }

    /// One full clock edge for all lanes; outputs land in `out` (cleared
    /// first) as one lane word per output port. Mirrors
    /// `engine::eval_cycle_into` phase for phase.
    pub fn step(&mut self, inputs: &[bool], out: &mut Vec<u64>) {
        for &(port, at) in &self.input_slots {
            let v = splat(inputs.get(port as usize).copied().unwrap_or(false));
            self.vals[at as usize] = v;
            self.vals[at as usize + 1] = !v;
        }
        self.settle();

        // Sample outputs: golden bindings, then per-lane replacement
        // vectors for reroute lanes whose output cone changed.
        let word = |(s, inv): (u32, bool)| self.vals[s as usize] ^ splat(inv);
        out.clear();
        out.extend(self.net.out_slots.iter().map(|&o| word(o)));
        for (lane, ovec, _) in &self.out_ovs {
            let m = 1u64 << lane;
            for (slot, &o) in out.iter_mut().zip(ovec.iter()) {
                *slot = (*slot & !m) | (word(o) & m);
            }
        }

        // FF next-state (double-buffered; reads old BRAM registers).
        let ff_base = self.net.layout.ffs as usize;
        for k in 0..self.ffs.len() {
            let i = self.ffs[k] as usize;
            let s = self.net.ff_slots[i];
            let oi = self.ff_ov[i];
            let (sr, ce, d) = if oi == u32::MAX {
                (
                    self.vals[s.sr as usize],
                    self.vals[s.ce as usize],
                    self.vals[s.d as usize],
                )
            } else {
                let ov = &self.ff_ovs[oi as usize];
                (
                    self.oval(s.sr, &ov.sr),
                    self.oval(s.ce, &ov.ce),
                    self.oval(s.d, &ov.d),
                )
            };
            let cur = self.vals[ff_base + i];
            self.ff_next[i] = (sr & self.ff_init[i]) | (!sr & ((ce & d) | (!ce & cur)));
        }

        // BRAM port operations, write-first per lane. Lanes whose network
        // does not hold the block are masked out of `en`, freezing both
        // the output register and the content. The new register lands in
        // the block's slots at once, for later ports and LUT-RAM writes.
        let bram_base = self.net.layout.brams as usize;
        for k in 0..self.brams.len() {
            let bi = self.brams[k] as usize;
            let s = &self.net.bram_slots[bi];
            let ov = self.bram_ovs.get(self.bram_ov[bi] as usize);
            let word = |slot, ovs: Option<&Vec<Ov>>| self.oval(slot, ovs.map_or(&[], |v| v));
            let en = word(s.en, ov.map(|o| &o.en)) & self.bram_active[bi];
            if en == 0 {
                continue;
            }
            let we = word(s.we, ov.map(|o| &o.we)) & en;
            let addr_w: [u64; 8] = std::array::from_fn(|i| word(s.addr[i], ov.map(|o| &o.addr[i])));
            let din_w: [u64; 16] = match we {
                0 => [0; 16],
                _ => std::array::from_fn(|i| word(s.din[i], ov.map(|o| &o.din[i]))),
            };
            let out_at = bram_base + 16 * bi;
            let mut new_out: [u64; 16] = self.vals[out_at..out_at + 16].try_into().unwrap();
            for lane in ones(en) {
                let m = 1u64 << lane;
                let mut a = 0usize;
                for (i, w) in addr_w.iter().enumerate() {
                    a |= (((w >> lane) & 1) as usize) << i;
                }
                let word = &mut self.mem[bi][a];
                if we & m != 0 {
                    for (k, plane) in word.iter_mut().enumerate() {
                        *plane = (*plane & !m) | (din_w[k] & m);
                    }
                }
                for (k, plane) in word.iter().enumerate() {
                    new_out[k] = (new_out[k] & !m) | (plane & m);
                }
            }
            self.vals[out_at..out_at + 16].copy_from_slice(&new_out);
        }

        // Run-time LUT writes (distributed RAM and SRL16). Lanes whose
        // network does not hold the LUT don't advance; that includes
        // every lane for an out-of-cone LUT this batch does not schedule.
        for k in 0..self.net.dynamic_luts.len() {
            let li = self.net.dynamic_luts[k] as usize;
            let ov = self.lut_ovs.get(self.lut_ov[li] as usize);
            let word = |slot, ovs: Option<&Vec<Ov>>| self.oval(slot, ovs.map_or(&[], |v| v));
            let we = word(self.net.lut_we[li], ov.map(|o| &o.we)) & self.lut_active[li];
            if we == 0 {
                continue;
            }
            let data = word(self.net.lut_data[li], ov.map(|o| &o.data));
            match self.net.luts[li].mode {
                LutMode::Ram => {
                    let p = self.pin_words(li);
                    for lane in ones(we) {
                        let m = 1u64 << lane;
                        let mut a = 0usize;
                        for (i, w) in p.iter().enumerate() {
                            a |= (((w >> lane) & 1) as usize) << i;
                        }
                        self.tab[li][a] = (self.tab[li][a] & !m) | (data & m);
                    }
                }
                LutMode::Shift => {
                    for k in (1..16).rev() {
                        self.tab[li][k] = (self.tab[li][k] & !we) | (self.tab[li][k - 1] & we);
                    }
                    self.tab[li][0] = (self.tab[li][0] & !we) | (data & we);
                }
                _ => unreachable!(),
            }
        }

        // Commit flip-flops; lanes whose network does not hold an FF keep
        // its value (the scalar corrupted compile dropped it).
        if self.has_reroute {
            for k in 0..self.ffs.len() {
                let i = self.ffs[k] as usize;
                let act = self.ff_active[i];
                let ff = &mut self.vals[ff_base + i];
                *ff = (*ff & !act) | (self.ff_next[i] & act);
            }
        } else {
            let g = self.golden.ffs;
            self.vals[ff_base..ff_base + g].copy_from_slice(&self.ff_next[..g]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{
        encode_wire, ff_dmux_offset, input_mux_offset, lut_mode_offset, lut_table_offset,
        out_sel_offset, outmux_offset, pip_offset, MuxPin, MUX_FLOATING, MUX_UNCONNECTED,
        MUX_UNCONNECTED_INV,
    };
    use crate::delta::DeltaClass;
    use crate::frames::{
        bram_if_addr_off, bram_if_din_off, IobEntry, BRAM_IF_EN_OFF, BRAM_IF_WE_OFF,
    };
    use crate::geometry::Dir;
    use crate::{ConfigMemory, Edge, Geometry, Tile};

    /// One XOR LUT routed west→east, as in the proptest designs.
    fn tiny_config() -> ConfigMemory {
        let geom = Geometry::tiny();
        let mut cm = ConfigMemory::new(geom.clone());
        cm.write_iob(
            Edge::West,
            0,
            0,
            IobEntry {
                enabled: true,
                port: 0,
                invert: false,
            },
        );
        let t0 = Tile::new(0, 0);
        cm.write_tile_field(t0, lut_table_offset(0, 0, 0), 16, 0x6996);
        cm.write_tile_field(
            t0,
            input_mux_offset(0, MuxPin::LutPin { lut: 0, pin: 0 }),
            8,
            encode_wire(Dir::West, 0) as u64,
        );
        cm.write_tile_field(t0, ff_dmux_offset(0, 0), 1, 0);
        cm.write_tile_field(
            t0,
            input_mux_offset(0, MuxPin::Cex),
            8,
            MUX_UNCONNECTED as u64,
        );
        cm.write_tile_field(
            t0,
            input_mux_offset(0, MuxPin::Srx),
            8,
            MUX_UNCONNECTED_INV as u64,
        );
        cm.write_tile_field(t0, out_sel_offset(0, 0), 1, 1);
        cm.write_tile_field(t0, outmux_offset(Dir::East, 0), 4, 0b0001);
        for col in 1..geom.cols {
            let t = Tile::new(0, col);
            cm.write_tile_field(
                t,
                pip_offset(Dir::East as usize * 24),
                8,
                1 | ((encode_wire(Dir::West, 0) as u64) << 1),
            );
        }
        cm.write_iob(
            Edge::East,
            0,
            0,
            IobEntry {
                enabled: true,
                port: 0,
                invert: false,
            },
        );
        cm
    }

    fn configure(cm: &ConfigMemory) -> Device {
        let mut dev = Device::new(cm.geometry().clone());
        dev.configure_full(cm);
        dev
    }

    fn tiny_design() -> Device {
        configure(&tiny_config())
    }

    #[test]
    fn golden_lane_tracks_scalar() {
        let mut dev = tiny_design();
        let mut wide = WideEngine::new(&mut dev).expect("wide engine");
        wide.load_batch(&[]);
        let mut wout = Vec::new();
        for c in 0..32 {
            let iv = [c % 3 == 0];
            let sout = dev.step(&iv);
            wide.step(&iv, &mut wout);
            assert_eq!(sout.len(), wout.len());
            for (o, w) in wout.iter().enumerate() {
                assert_eq!(*w & 1 == 1, sout[o], "cycle {c} output {o}");
                // No corruption loaded: every lane must agree.
                assert!(*w == 0 || *w == !0, "lanes diverged without faults");
            }
        }
    }

    /// Run `upset` in lane 1 against a scalar device with `bit` flipped,
    /// through corruption, repair and a persistence window; lane 0 must
    /// track an uncorrupted device throughout. Returns the cycles on
    /// which lane 1 diverged from lane 0.
    fn lane_matches_scalar(
        wide: &mut WideEngine,
        dev: &Device,
        bit: usize,
        upset: LaneUpset,
    ) -> usize {
        let mut golden = dev.clone();
        let mut scalar = dev.clone();
        scalar.flip_config_bit(bit);
        wide.load_batch_upsets(&[upset]);
        let mut wout = Vec::new();
        let mut diverged = 0;
        let mut check = |wide: &mut WideEngine, scalar: &mut Device, iv: &[bool], what: &str| {
            let sout = scalar.step(iv);
            let gout = golden.step(iv);
            wide.step(iv, &mut wout);
            for (o, w) in wout.iter().enumerate() {
                assert_eq!((*w >> 1) & 1 == 1, sout[o], "{what}: output {o}");
                assert_eq!(*w & 1 == 1, gout[o], "{what}: golden output {o}");
            }
            diverged += usize::from(sout != gout);
        };
        for c in 0..32 {
            check(wide, &mut scalar, &[c % 3 == 0], &format!("cycle {c}"));
        }
        // Repair mid-stream and verify both converge.
        scalar.flip_config_bit(bit);
        wide.repair();
        for c in 0..16 {
            check(
                wide,
                &mut scalar,
                &[c % 2 == 0],
                &format!("post-repair cycle {c}"),
            );
        }
        diverged
    }

    #[test]
    fn lut_table_lane_matches_scalar_flip() {
        let mut dev = tiny_design();
        let map = DeltaMap::build(&mut dev);
        let mut wide = WideEngine::with_map(&mut dev, &map).expect("wide engine");
        // Find a compiled LUT-table bit and run it in lane 1 vs scalar.
        let mut probe = dev.clone();
        let (bit, upset) = probe
            .active_config_bits()
            .into_iter()
            .find_map(|b| match map.classify(&mut probe, b) {
                DeltaClass::Lane(u)
                    if matches!(u.0, UpsetKind::State(WideTarget::LutTable { .. })) =>
                {
                    Some((b, u))
                }
                _ => None,
            })
            .expect("a compiled LUT table bit");
        assert!(lane_matches_scalar(&mut wide, &dev, bit, upset) > 0);
    }

    /// A reroute reaching past the golden cone: one PIP bit on the output
    /// route switches it to a BRAM data-out bit. The BRAM is outside the
    /// golden cone, and so is the toggle flip-flop on its address, while
    /// its write enable taps the golden route. Lane 1 must clock both
    /// exactly as the corrupted scalar compile does, and leave them frozen
    /// again after repair.
    #[test]
    fn out_of_cone_reroute_matches_scalar() {
        let mut cm = tiny_config();
        let (ff_tile, home) = (Tile::new(0, 3), Tile::new(0, 4));
        assert_eq!(cm.geometry().bram_at_home_tile(home), Some((0, 0)));
        // The FF's output loops back to its LUT through a PIP on the
        // BRAM's home tile; the LUT inverts it.
        cm.write_tile_field(ff_tile, lut_table_offset(0, 0, 0), 16, 0x5555);
        cm.write_tile_field(
            ff_tile,
            input_mux_offset(0, MuxPin::LutPin { lut: 0, pin: 0 }),
            8,
            encode_wire(Dir::East, 2) as u64,
        );
        cm.write_tile_field(
            home,
            pip_offset(Dir::West as usize * 24 + 2),
            8,
            1 | ((encode_wire(Dir::West, 1) as u64) << 1),
        );
        cm.write_tile_field(
            ff_tile,
            input_mux_offset(0, MuxPin::Cex),
            8,
            MUX_UNCONNECTED as u64,
        );
        cm.write_tile_field(
            ff_tile,
            input_mux_offset(0, MuxPin::Srx),
            8,
            MUX_UNCONNECTED_INV as u64,
        );
        cm.write_tile_field(ff_tile, out_sel_offset(0, 0), 1, 1);
        cm.write_tile_field(ff_tile, outmux_offset(Dir::East, 1), 4, 0b0001);
        for i in 0..8 {
            let sel = if i == 0 {
                encode_wire(Dir::West, 1)
            } else {
                MUX_FLOATING
            };
            cm.write_bram_if_field(0, 0, bram_if_addr_off(i), 8, sel as u64);
        }
        for i in 0..16 {
            let sel = if i == 8 {
                MUX_UNCONNECTED
            } else {
                MUX_FLOATING
            };
            cm.write_bram_if_field(0, 0, bram_if_din_off(i), 8, sel as u64);
        }
        let we = encode_wire(Dir::West, 0);
        cm.write_bram_if_field(0, 0, BRAM_IF_WE_OFF, 8, we as u64);
        cm.write_bram_if_field(0, 0, BRAM_IF_EN_OFF, 8, MUX_UNCONNECTED as u64);
        let mut dev = configure(&cm);

        // PIP select West-0 (72) with bit 5 set is BramOut(8) (104).
        let bit = dev
            .config()
            .tile_bit_index(home, pip_offset(Dir::East as usize * 24) + 1 + 5);
        let map = DeltaMap::build(&mut dev);
        let DeltaClass::Lane(upset) = map.classify(&mut dev.clone(), bit) else {
            panic!("the BRAM reroute must be a lane");
        };
        assert!(upset.is_augmented());
        let mut wide = WideEngine::with_map(&mut dev, &map).expect("wide engine");
        assert!(lane_matches_scalar(&mut wide, &dev, bit, upset.clone()) > 0);
        let g = map.golden;
        wide.load_batch_upsets(&[upset]);
        assert_eq!(wide.ffs.len(), g.ffs + 1, "lane reaches the out-of-cone FF");
        assert_eq!(
            wide.brams.len(),
            g.brams + 1,
            "lane reaches the out-of-cone BRAM"
        );
        wide.repair();
        assert_eq!(wide.ffs.len(), g.ffs, "repair drops the out-of-cone FF");
    }

    /// A PIP chain from tile `from` through `steps` tiles in direction
    /// `dir`: each hop's outgoing wire `idx` takes the previous hop's.
    fn route(cm: &mut ConfigMemory, from: Tile, dir: Dir, idx: usize, steps: usize) {
        let mut t = from;
        for _ in 0..steps {
            t = cm
                .geometry()
                .neighbor(t, dir)
                .expect("route stays on the device");
            cm.write_tile_field(
                t,
                pip_offset(dir as usize * 24 + idx),
                8,
                1 | ((encode_wire(dir.opposite(), idx) as u64) << 1),
            );
        }
    }

    /// Bind east output `port` to outgoing East wire `idx` of `row`.
    fn east_port(cm: &mut ConfigMemory, row: usize, idx: usize, port: u8) {
        let entry = IobEntry {
            enabled: true,
            port,
            invert: false,
        };
        cm.write_iob(Edge::East, row, idx, entry);
    }

    /// Within one cycle, a BRAM port's freshly latched output register
    /// reaches every later BRAM port and LUT-RAM write, while flip-flop
    /// next-state samples the old one. BRAM A (compiled first) reads
    /// input port 0 as its address; its data-out bit 3 addresses BRAM B,
    /// write-enables a RAM-mode LUT and feeds a flip-flop's D. Lane 0 and
    /// a state-overlay lane on A's content must match the scalar engine
    /// cycle for cycle.
    #[test]
    fn bram_output_reaches_later_ports_the_same_cycle() {
        let mut cm = tiny_config();
        let (a_home, b_home, ram) = (Tile::new(0, 4), Tile::new(4, 4), Tile::new(0, 5));
        assert_eq!(cm.geometry().bram_at_home_tile(a_home), Some((0, 0)));
        assert_eq!(cm.geometry().bram_at_home_tile(b_home), Some((0, 1)));
        let bram_out = |bit: u64| 1 | ((96 + bit) << 1);

        // Input port 0 along row 0 to A's address pin 0.
        cm.write_tile_field(
            Tile::new(0, 0),
            pip_offset(Dir::East as usize * 24 + 5),
            8,
            1 | ((encode_wire(Dir::West, 0) as u64) << 1),
        );
        route(&mut cm, Tile::new(0, 0), Dir::East, 5, 4);
        // A: word 0 = bit 0, word 1 = bit 3, always enabled, read-only.
        // B: word 1 = all ones.
        cm.write_bram_word(0, 0, 0, 0b0001);
        cm.write_bram_word(0, 0, 1, 0b1000);
        cm.write_bram_word(0, 1, 1, 0xFFFF);
        for block in 0..2 {
            for i in 0..8 {
                cm.write_bram_if_field(0, block, bram_if_addr_off(i), 8, MUX_FLOATING as u64);
            }
            for i in 0..16 {
                cm.write_bram_if_field(0, block, bram_if_din_off(i), 8, MUX_FLOATING as u64);
            }
            cm.write_bram_if_field(0, block, BRAM_IF_WE_OFF, 8, MUX_FLOATING as u64);
            let en = MUX_UNCONNECTED as u64;
            cm.write_bram_if_field(0, block, BRAM_IF_EN_OFF, 8, en);
        }
        let a_addr0 = encode_wire(Dir::West, 5) as u64;
        cm.write_bram_if_field(0, 0, bram_if_addr_off(0), 8, a_addr0);

        // A's bit 0 out to port 2: compiled before B, so A's port runs
        // first.
        cm.write_tile_field(
            a_home,
            pip_offset(Dir::East as usize * 24 + 2),
            8,
            bram_out(0),
        );
        route(&mut cm, a_home, Dir::East, 2, 3);
        east_port(&mut cm, 0, 2, 2);
        // A's bit 3 south to B's address pin 0, and east to the slice.
        cm.write_tile_field(
            a_home,
            pip_offset(Dir::South as usize * 24 + 7),
            8,
            bram_out(3),
        );
        route(&mut cm, a_home, Dir::South, 7, 3);
        let b_addr0 = encode_wire(Dir::North, 7) as u64;
        cm.write_bram_if_field(0, 1, bram_if_addr_off(0), 8, b_addr0);
        cm.write_tile_field(
            a_home,
            pip_offset(Dir::East as usize * 24 + 6),
            8,
            bram_out(3),
        );
        // B's bit 2 out to port 3.
        cm.write_tile_field(
            b_home,
            pip_offset(Dir::East as usize * 24 + 3),
            8,
            bram_out(2),
        );
        route(&mut cm, b_home, Dir::East, 3, 3);
        east_port(&mut cm, 4, 3, 3);

        // LUT F of the slice: RAM mode, table 0, write-enabled by A's bit
        // 3, data from input port 0; its output to port 1.
        cm.write_tile_field(ram, lut_mode_offset(0, 0), 2, 2);
        cm.write_tile_field(ram, lut_table_offset(0, 0, 0), 16, 0);
        for pin in 0..4 {
            let off = input_mux_offset(0, MuxPin::LutPin { lut: 0, pin });
            cm.write_tile_field(ram, off, 8, MUX_FLOATING as u64);
        }
        let a_bit3 = encode_wire(Dir::West, 6) as u64;
        cm.write_tile_field(ram, input_mux_offset(0, MuxPin::Srx), 8, a_bit3);
        let input = encode_wire(Dir::West, 5) as u64;
        route(&mut cm, a_home, Dir::East, 5, 1);
        cm.write_tile_field(ram, input_mux_offset(0, MuxPin::Bx), 8, input);
        cm.write_tile_field(ram, outmux_offset(Dir::East, 1), 4, 0b0001);
        route(&mut cm, ram, Dir::East, 1, 2);
        east_port(&mut cm, 0, 1, 1);
        // Flip-flop Y of the slice: D = A's bit 3, always enabled; its
        // output to port 4.
        cm.write_tile_field(ram, ff_dmux_offset(0, 1), 1, 1);
        cm.write_tile_field(ram, input_mux_offset(0, MuxPin::By), 8, a_bit3);
        let cey = MUX_UNCONNECTED as u64;
        cm.write_tile_field(ram, input_mux_offset(0, MuxPin::Cey), 8, cey);
        let sry = MUX_UNCONNECTED_INV as u64;
        cm.write_tile_field(ram, input_mux_offset(0, MuxPin::Sry), 8, sry);
        cm.write_tile_field(ram, out_sel_offset(0, 1), 1, 1);
        cm.write_tile_field(ram, outmux_offset(Dir::East, 4), 4, 0b0011);
        route(&mut cm, ram, Dir::East, 4, 2);
        east_port(&mut cm, 0, 4, 4);
        let mut dev = configure(&cm);
        assert_eq!(dev.num_outputs(), 5);
        let stats = dev.network_stats();
        assert_eq!((stats.brams, stats.has_comb_cycles), (2, false));

        // Lane 1 clears A's word-1 bit 3.
        let bit = dev.config().bram_content_index(0, 0, 16 + 3);
        let map = DeltaMap::build(&mut dev);
        let upset = match map.classify(&mut dev.clone(), bit) {
            DeltaClass::Lane(u) if matches!(u.0, UpsetKind::State(WideTarget::BramBit { .. })) => u,
            other => panic!("A's content bit must be a state overlay, got {other:?}"),
        };
        let mut wide = WideEngine::with_map(&mut dev, &map).expect("wide engine");
        assert!(lane_matches_scalar(&mut wide, &dev, bit, upset) > 0);
    }
}
