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
//! (lane-masked source overrides and LUT write modes, with reach masks
//! freezing the nodes the lane's corrupted network drops). A LUT re-mode
//! is a reroute: a lane holds a LUT static by reading its write enable as
//! 0, and dynamic by overriding it, writing as RAM or, in the LUT's SRL16
//! lanes, by shifting. [`WideEngine::with_map`] runs the map's augmented
//! network: its nodes past the golden cone hold still in every lane that
//! does not reach them, and are evaluated only in batches where some lane
//! does. Bits the triage calls structural take the scalar path instead.
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
//!
//! A batch evaluates only the forward *cone* of its upsets once
//! [`WideEngine::record_golden`] has recorded lane 0's value of every
//! golden LUT and flip-flop on each cycle of the campaign's stimulus. The
//! cone closes under fan-out (LUT pins, data and write enable; FF D, CE
//! and SR; BRAM ports) the nodes a lane can make differ from lane 0: the
//! node of each state overlay, each node with a lane override, each LUT
//! whose write mode a lane changes, each golden node some reroute lane
//! does not hold (it freezes in that lane) and each augmented node (past
//! the golden cone) some lane holds. A node outside the cone reads only
//! golden values and holds golden state in every lane, and repair
//! returns every lane to golden edges, which the closure already
//! followed, so that holds for the whole batch. The batch settles, clocks
//! and writes only the cone; each step first fills the golden LUT and FF
//! slots outside it that a scheduled operand, a lane override or an
//! output reads from the trace. BRAM ports run on every step, since a
//! register latched earlier in a step reaches later ports and the trace
//! keeps one value per cycle. Without a trace the cone is every golden
//! node.

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

/// One lane's replacement output vector: (lane, the golden ports it
/// binds differently as (port, slot, invert), reachability seeds — the
/// sources of every enabled east entry in the lane's corrupted
/// configuration, shadowed bindings included).
type OutOverride = (u8, Vec<(u32, u32, bool)>, Vec<Src>);

/// Lane 0's value of every golden LUT and flip-flop on each cycle of one
/// stimulus, bit-packed per cycle: the LUTs by id, then the flip-flops
/// (their value as the cycle starts).
#[derive(Debug, Clone)]
struct GoldenTrace {
    /// The stimulus it was recorded under, one vector per cycle.
    inputs: Vec<Vec<bool>>,
    /// Words per cycle.
    words: usize,
    bits: Vec<u64>,
}

/// Node ids shared by the fan-out index and the cone: the LUTs, then the
/// flip-flops, then the BRAM blocks, each by compiled id. The node whose
/// value `slot` holds (a LUT output, an FF value or a BRAM register bit),
/// if it holds one.
fn slot_node(net: &Compiled, slot: u32) -> Option<u32> {
    let l = net.layout;
    let (luts, ffs) = (net.luts.len() as u32, net.ffs.len() as u32);
    match slot {
        s if s < l.luts || s >= l.len => None,
        s if s < l.ffs => Some(s - l.luts),
        s if s < l.brams => Some(luts + s - l.ffs),
        s => Some(luts + ffs + (s - l.brams) / 16),
    }
}

/// Call `f` with the slot of every operand of node `n`.
fn operands(net: &Compiled, n: usize, f: impl FnMut(u32)) {
    let (luts, ffs) = (net.luts.len(), net.ffs.len());
    if n < luts {
        let pins = net.lut_pins[n].into_iter();
        pins.chain([net.lut_data[n], net.lut_we[n]]).for_each(f);
    } else if n < luts + ffs {
        let s = net.ff_slots[n - luts];
        [s.d, s.ce, s.sr].into_iter().for_each(f);
    } else {
        let s = &net.bram_slots[n - luts - ffs];
        let ports = s.addr.iter().chain(&s.din).copied();
        ports.chain([s.we, s.en]).for_each(f);
    }
}

/// One list of node ids per node, flat: node `n`'s is
/// `to[at[n]..at[n + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Adjacency {
    at: Vec<u32>,
    to: Vec<u32>,
}

impl Adjacency {
    /// Over `n` nodes, each edge's second node listed under its first,
    /// in the order of `edges`.
    pub fn from_edges(n: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Adjacency {
        let mut at = vec![0u32; n + 1];
        for (a, _) in edges.clone() {
            at[a as usize + 1] += 1;
        }
        for i in 0..n {
            at[i + 1] += at[i];
        }
        let mut next = at.clone();
        let mut to = vec![0u32; at[n] as usize];
        for (a, b) in edges {
            to[next[a as usize] as usize] = b;
            next[a as usize] += 1;
        }
        Adjacency { at, to }
    }

    /// Node `n`'s list.
    #[inline]
    pub fn of(&self, n: usize) -> &[u32] {
        &self.to[self.at[n] as usize..self.at[n + 1] as usize]
    }
}

/// The network's operand edges both ways, over the node ids of
/// [`slot_node`]: per node, the nodes one of whose operands reads it (the
/// fan-out), and the node each of its operands reads (the operand index;
/// an operand on an input port, a constant or a half-latch has no entry).
/// Each list is ascending and holds a node once.
pub(crate) fn node_index(net: &Compiled) -> (Adjacency, Adjacency) {
    let n = net.luts.len() + net.ffs.len() + net.brams.len();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for reader in 0..n {
        operands(net, reader, |s| {
            edges.extend(slot_node(net, s).map(|src| (reader as u32, src)));
        });
    }
    edges.sort_unstable();
    edges.dedup();
    let fanout = Adjacency::from_edges(n, edges.iter().map(|&(r, s)| (s, r)));
    (fanout, Adjacency::from_edges(n, edges.iter().copied()))
}

/// The word-parallel engine: a network snapshot plus lane-packed dynamic
/// state for one batch of up to [`LANES`]` - 1` experiments.
#[derive(Debug, Clone)]
pub struct WideEngine {
    net: Compiled,
    /// Golden node counts: ids at or past them are out-of-cone nodes of
    /// an augmented network.
    golden: NodeCounts,
    /// Per node, the nodes that read it, and the nodes it reads (see
    /// [`node_index`]).
    fanout: Adjacency,
    reads: Adjacency,
    /// The golden trace batches read outside their cone, once recorded.
    trace: Option<GoldenTrace>,
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
    /// The network's dynamic LUTs, each with its golden SRL16 lanes.
    golden_writers: Vec<(u32, u64)>,

    // ---- the current batch's schedule ------------------------------------
    /// Per node: the batch evaluates it (see the module doc).
    cone: Vec<bool>,
    /// LUTs to settle, in order: the cone's.
    order: Vec<u32>,
    /// Flip-flops to clock: the cone's.
    ffs: Vec<u32>,
    /// BRAM blocks to clock: every golden one, and the out-of-cone ones
    /// some lane reaches.
    brams: Vec<u32>,
    /// The LUTs of the cone whose tables the batch writes, each with the
    /// lanes that write it by shifting (SRL16; the others write as RAM):
    /// the network's dynamic LUTs, then any LUT a lane re-modes to RAM or
    /// SRL16.
    writers: Vec<(u32, u64)>,
    /// (slot, trace bit) of each golden LUT and FF outside the cone that
    /// the batch reads, filled from the golden trace as each step starts.
    boundary: Vec<(u32, u32)>,
    /// Steps since the batch loaded: the trace row the next step reads.
    cycle: usize,
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
        let golden_writers: Vec<(u32, u64)> = net
            .dynamic_luts
            .iter()
            .map(|&li| (li, splat(net.luts[li as usize].mode == LutMode::Shift)))
            .collect();
        let (fanout, reads) = node_index(&net);

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
            writers: golden_writers.clone(),
            golden_writers,
            fanout,
            reads,
            trace: None,
            cone: vec![false; n_luts + n_ffs + n_brams],
            order: Vec::new(),
            ffs: Vec::new(),
            brams: Vec::new(),
            boundary: Vec::new(),
            cycle: 0,
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

    /// Record lane 0's value of every golden LUT and flip-flop on each
    /// cycle of `stimulus`, from one pass of an empty batch over the whole
    /// network. From then on every batch evaluates only the forward cone
    /// of its upsets and reads the rest of the network from this trace,
    /// so it must replay `stimulus` from its first cycle: stepping past
    /// the trace's end panics, and debug builds check the inputs.
    pub fn record_golden(&mut self, stimulus: &[Vec<bool>]) {
        self.trace = None;
        self.load_batch_upsets(&[]);
        let (g, l) = (self.golden, self.net.layout);
        let words = (g.luts + g.ffs).div_ceil(64).max(1);
        let mut bits = vec![0u64; words * stimulus.len()];
        let mut out = Vec::new();
        for (iv, row) in stimulus.iter().zip(bits.chunks_mut(words)) {
            let mut put = |bit: usize, v: u64| row[bit / 64] |= (v & 1) << (bit % 64);
            for (i, &v) in self.vals[l.ffs as usize..][..g.ffs].iter().enumerate() {
                put(g.luts + i, v);
            }
            self.step(iv, &mut out);
            for (i, &v) in self.vals[l.luts as usize..][..g.luts].iter().enumerate() {
                put(i, v);
            }
        }
        let inputs = stimulus.to_vec();
        self.trace = Some(GoldenTrace {
            inputs,
            words,
            bits,
        });
    }

    /// Golden LUTs and flip-flops the loaded batch evaluates, and how many
    /// the golden network has: all of them without a golden trace, the
    /// batch's forward cone with one.
    pub fn cone_size(&self) -> (usize, usize) {
        let (g, luts) = (self.golden, self.net.luts.len());
        let golden = self.cone[..g.luts]
            .iter()
            .chain(&self.cone[luts..][..g.ffs]);
        (golden.filter(|&&c| c).count(), g.luts + g.ffs)
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
        let mut reroutes = 0u64;
        for (i, u) in upsets.iter().enumerate() {
            let lane = (i + 1) as u8;
            match &u.0 {
                UpsetKind::State(t) => self.state_targets.push((lane, *t)),
                UpsetKind::Reroute { ops, resweep, .. } => {
                    self.install_ops(lane, ops);
                    reroutes |= 1 << lane;
                    self.resweep |= resweep;
                }
            }
        }
        self.has_reroute = reroutes != 0;
        self.apply_state_overlays();
        if self.has_reroute {
            self.apply_reachability(reroutes);
        }
        self.mark_cone();
        self.schedule();
        self.mark_boundary();
        self.cycle = 0;
        self.repaired = false;
    }

    /// Undo every lane's corruption — the batched analogue of the repair
    /// `flip_config_bit`. State overlays are an XOR, not a
    /// restore-to-golden: a dynamic resource may have overwritten the
    /// corrupted cell during the observe window, and the scalar repair
    /// likewise flips whatever is there now. Reroute lanes drop their
    /// source overrides and write modes and return to the golden reach
    /// masks — the scalar repair recompiles back to the golden network
    /// with the device state (including state the frozen or out-of-cone
    /// nodes hold, and every table a re-moded LUT wrote) carried over.
    /// Dynamic state is deliberately kept in both cases, so the
    /// persistence window continues from the post-upset state exactly like
    /// the scalar path. The batch keeps its cone, less the augmented nodes,
    /// which no lane holds any longer.
    pub fn repair(&mut self) {
        if !self.repaired {
            self.apply_state_overlays();
            self.clear_reroutes();
            let (g, luts, ffs) = (self.golden, self.net.luts.len(), self.net.ffs.len());
            self.cone[g.luts..luts].fill(false);
            self.cone[luts + g.ffs..luts + ffs].fill(false);
            self.cone[luts + ffs + g.brams..].fill(false);
            self.schedule();
            self.repaired = true;
        }
    }

    fn clear_reroutes(&mut self) {
        self.writers.clone_from(&self.golden_writers);
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
            self.valid_out.fill(!0);
            self.len_diff = 0;
            self.resweep = false;
            self.has_reroute = false;
        }
    }

    /// True if node `n` is a golden one.
    fn is_golden(&self, n: usize) -> bool {
        let (g, luts, ffs) = (self.golden, self.net.luts.len(), self.net.ffs.len());
        if n < luts {
            n < g.luts
        } else if n < luts + ffs {
            n - luts < g.ffs
        } else {
            n - luts - ffs < g.brams
        }
    }

    /// Mark the batch's cone: the closure under fan-out of every node a
    /// lane can make differ from lane 0 (see the module doc), or of every
    /// golden node when there is no golden trace to read the rest from.
    /// An augmented node joins it only where some lane holds it.
    fn mark_cone(&mut self) {
        let (luts, ffs) = (self.net.luts.len(), self.net.ffs.len());
        let traced = self.trace.is_some();
        let active = self.lut_active.iter().chain(&self.ff_active);
        let overridden = self.lut_ov.iter().chain(&self.ff_ov).chain(&self.bram_ov);
        let mut work: Vec<u32> = Vec::new();
        for (n, (&held, &ov)) in active.chain(&self.bram_active).zip(overridden).enumerate() {
            let seed = if self.is_golden(n) {
                !traced || held != !0 || ov != u32::MAX
            } else {
                held != 0
            };
            if seed {
                work.push(n as u32);
            }
        }
        work.extend(self.state_targets.iter().map(|&(_, t)| match t {
            WideTarget::LutTable { lut, .. } => lut,
            WideTarget::FfInit { ff } => (luts as u32) + ff,
            WideTarget::BramBit { mem, .. } => (luts + ffs) as u32 + mem,
        }));
        let remoded = self.writers.iter().enumerate();
        work.extend(
            remoded.filter_map(|(k, w)| (self.golden_writers.get(k) != Some(w)).then_some(w.0)),
        );
        self.cone.fill(false);
        while let Some(n) = work.pop() {
            let n = n as usize;
            if std::mem::replace(&mut self.cone[n], true) {
                continue;
            }
            for &r in self.fanout.of(n) {
                if !self.cone[r as usize] && self.is_golden(r as usize) {
                    work.push(r);
                }
            }
        }
    }

    /// Schedule the cone: the LUTs it settles, the flip-flops it clocks
    /// and the table writers among its LUTs. Every golden BRAM port runs
    /// regardless, as do the augmented ones in the cone.
    fn schedule(&mut self) {
        let (g, luts, ffs) = (self.golden, self.net.luts.len(), self.net.ffs.len());
        let cone = &self.cone;
        self.order.clear();
        let order = self.net.order.iter().copied();
        self.order.extend(order.filter(|&i| cone[i as usize]));
        self.ffs.clear();
        self.ffs
            .extend((0..ffs as u32).filter(|&i| cone[luts + i as usize]));
        self.brams.clear();
        let brams = 0..self.net.brams.len() as u32;
        self.brams
            .extend(brams.filter(|&i| (i as usize) < g.brams || cone[luts + ffs + i as usize]));
        self.writers.retain(|&(li, _)| cone[li as usize]);
        let any = |c: &[bool]| c.iter().any(|&c| c);
        self.ext_dirty |= any(&cone[g.luts..luts])
            || any(&cone[luts + g.ffs..luts + ffs])
            || self.brams.len() > g.brams;
    }

    /// List the golden LUT and FF slots outside the cone that the batch
    /// reads: an operand of a scheduled node, a lane override's source or
    /// an output, golden or a lane's replacement. The list covers the
    /// batch after repair too, which schedules and overrides less.
    fn mark_boundary(&mut self) {
        let (net, g, cone) = (&self.net, self.golden, &self.cone);
        let (luts, ffs) = (net.luts.len(), net.ffs.len());
        let mut listed = vec![false; cone.len()];
        let boundary = &mut self.boundary;
        boundary.clear();
        let mut read = |s: u32| {
            let Some(n) = slot_node(net, s).map(|n| n as usize) else {
                return;
            };
            let bit = if n < g.luts {
                n
            } else if (luts..luts + g.ffs).contains(&n) {
                g.luts + n - luts
            } else {
                return;
            };
            if !cone[n] && !std::mem::replace(&mut listed[n], true) {
                boundary.push((s, bit as u32));
            }
        };
        let scheduled = self.order.iter().map(|&i| i as usize);
        let scheduled = scheduled.chain(self.ffs.iter().map(|&i| luts + i as usize));
        let brams = self.brams.iter().map(|&i| luts + ffs + i as usize);
        for n in scheduled.chain(brams) {
            operands(net, n, &mut read);
        }
        for ov in &self.lut_ovs {
            let lists = ov.pins.iter().chain([&ov.data, &ov.we]);
            lists.flatten().for_each(|&(_, _, s)| read(s));
        }
        for ov in &self.ff_ovs {
            let lists = [&ov.d, &ov.ce, &ov.sr].into_iter();
            lists.flatten().for_each(|&(_, _, s)| read(s));
        }
        for ov in &self.bram_ovs {
            let lists = ov.addr.iter().chain(&ov.din).chain([&ov.we, &ov.en]);
            lists.flatten().for_each(|&(_, _, s)| read(s));
        }
        net.out_slots.iter().for_each(|&(s, _)| read(s));
        for (_, ports, _) in &self.out_ovs {
            ports.iter().for_each(|&(_, s, _)| read(s));
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
                    // Only the ports bound differently: the rest read
                    // the golden word already.
                    let outs: Vec<(u32, bool)> = outs
                        .iter()
                        .map(|&(s, inv)| (self.ov_slot(s), inv))
                        .collect();
                    let ports = outs.into_iter().zip(&self.net.out_slots).enumerate();
                    let changed = ports.filter(|(_, (o, g))| o != *g);
                    let changed = changed.map(|(port, ((s, inv), _))| (port as u32, s, inv));
                    self.out_ovs.push((lane, changed.collect(), seeds.clone()));
                }
                &DeltaOp::WriteMode { lut, shift } => {
                    let at = match self.writers.iter().position(|&(l, _)| l == lut) {
                        Some(at) => at,
                        None => {
                            self.writers.push((lut, 0));
                            self.writers.len() - 1
                        }
                    };
                    let lanes = &mut self.writers[at].1;
                    *lanes = (*lanes & !m) | (splat(shift) & m);
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
        let seeds = self.reach_seeds(reroutes);
        let held = reach(
            &self.net,
            &self.reads,
            &seeds,
            |n| self.overridden(n),
            |root| self.ovs(root).iter().map(|&(lanes, src, _)| (lanes, src)),
        );
        let (luts, ffs) = (self.net.luts.len(), self.net.ffs.len());
        for (active, held) in [
            (&mut self.lut_active, &held[..luts]),
            (&mut self.ff_active, &held[luts..luts + ffs]),
            (&mut self.bram_active, &held[luts + ffs..]),
        ] {
            for (a, &h) in active.iter_mut().zip(held) {
                *a = (*a & !reroutes) | (h & reroutes);
            }
        }
    }

    /// Where the reroute lanes' networks root: the golden outputs, a
    /// lane's replacement outputs instead where it has them, and in
    /// diagnostics mode every flip-flop.
    fn reach_seeds(&self, reroutes: u64) -> Vec<(Src, u64)> {
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
        seeds
    }

    /// True if node `n` (an id of [`node_index`]) carries a lane override.
    fn overridden(&self, n: usize) -> bool {
        let (luts, ffs) = (self.net.luts.len(), self.net.ffs.len());
        let slot = if n < luts {
            self.lut_ov[n]
        } else if n < luts + ffs {
            self.ff_ov[n - luts]
        } else {
            self.bram_ov[n - luts - ffs]
        };
        slot != u32::MAX
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
    /// `engine::eval_cycle_into` phase for phase, over the batch's cone.
    pub fn step(&mut self, inputs: &[bool], out: &mut Vec<u64>) {
        if let Some(t) = &self.trace {
            let (c, len) = (self.cycle, t.inputs.len());
            assert!(c < len, "cycle {c} is past the {len}-cycle golden trace");
            debug_assert_eq!(
                inputs,
                &t.inputs[c][..],
                "cycle {c} leaves the traced stimulus"
            );
            let row = &t.bits[c * t.words..][..t.words];
            for &(slot, bit) in &self.boundary {
                self.vals[slot as usize] = splat((row[bit as usize / 64] >> (bit % 64)) & 1 == 1);
            }
        }
        self.cycle += 1;
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
        for (lane, ports, _) in &self.out_ovs {
            let m = 1u64 << lane;
            for &(port, s, inv) in ports {
                let o = &mut out[port as usize];
                *o = (*o & !m) | (word((s, inv)) & m);
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

        // Run-time LUT writes (distributed RAM and SRL16) in the cone.
        // Lanes whose network does not hold the LUT don't advance; a
        // lane holding the LUT static reads its write enable as 0.
        for k in 0..self.writers.len() {
            let (li, shift) = self.writers[k];
            let li = li as usize;
            let ov = self.lut_ovs.get(self.lut_ov[li] as usize);
            let word = |slot, ovs: Option<&Vec<Ov>>| self.oval(slot, ovs.map_or(&[], |v| v));
            let we = word(self.net.lut_we[li], ov.map(|o| &o.we)) & self.lut_active[li];
            if we == 0 {
                continue;
            }
            let data = word(self.net.lut_data[li], ov.map(|o| &o.data));
            let ram = we & !shift;
            if ram != 0 {
                let p = self.pin_words(li);
                for lane in ones(ram) {
                    let m = 1u64 << lane;
                    let mut a = 0usize;
                    for (i, w) in p.iter().enumerate() {
                        a |= (((w >> lane) & 1) as usize) << i;
                    }
                    self.tab[li][a] = (self.tab[li][a] & !m) | (data & m);
                }
            }
            let shifted = we & shift;
            if shifted != 0 {
                let tab = &mut self.tab[li];
                for k in (1..16).rev() {
                    tab[k] = (tab[k] & !shifted) | (tab[k - 1] & shifted);
                }
                tab[0] = (tab[0] & !shifted) | (data & shifted);
            }
        }

        // Commit flip-flops; lanes whose network does not hold an FF keep
        // its value (the scalar corrupted compile dropped it).
        for k in 0..self.ffs.len() {
            let i = self.ffs[k] as usize;
            let act = self.ff_active[i];
            let ff = &mut self.vals[ff_base + i];
            *ff = (*ff & !act) | (self.ff_next[i] & act);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{input_mux_offset, lut_mode_offset, pip_offset, MuxPin};
    use crate::delta::DeltaClass;
    use crate::fixtures::*;
    use crate::geometry::Dir;
    use crate::Tile;

    #[test]
    fn golden_lane_tracks_scalar() {
        let mut dev = tiny_design();
        let mut wide = WideEngine::new(&mut dev).expect("wide engine");
        wide.load_batch_upsets(&[]);
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

    /// The 48 cycles `lane_matches_scalar` drives: 32 of corruption, 16
    /// after repair.
    fn stimulus() -> Vec<Vec<bool>> {
        let corrupt = (0..32).map(|c| vec![c % 3 == 0]);
        corrupt.chain((0..16).map(|c| vec![c % 2 == 0])).collect()
    }

    /// Run `upset` alone in lane 1, over the golden trace of the driven
    /// stimulus, against a scalar device with `bit` flipped, through
    /// corruption, repair and a persistence window; lane 0 must track an
    /// uncorrupted device throughout. Returns the cycles on which lane 1
    /// diverged from lane 0.
    fn lane_matches_scalar(
        wide: &mut WideEngine,
        dev: &Device,
        bit: usize,
        upset: LaneUpset,
    ) -> usize {
        let stimulus = stimulus();
        wide.record_golden(&stimulus);
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
        for (c, iv) in stimulus[..32].iter().enumerate() {
            check(wide, &mut scalar, iv, &format!("cycle {c}"));
        }
        // Repair mid-stream and verify both converge.
        scalar.flip_config_bit(bit);
        wide.repair();
        for (c, iv) in stimulus[32..].iter().enumerate() {
            check(wide, &mut scalar, iv, &format!("post-repair cycle {c}"));
        }
        diverged
    }

    /// With a golden trace, an empty batch has an empty cone: it settles
    /// no LUT, clocks no flip-flop and writes no table, yet every lane
    /// reads the golden outputs from the trace, a registered one and a
    /// LUT-RAM's among them.
    #[test]
    fn empty_traced_batch_reads_golden_outputs_from_the_trace() {
        let mut dev = configure(&remode_config(LutMode::Ram));
        let mut wide = WideEngine::new(&mut dev).expect("wide engine");
        let stimulus = stimulus();
        wide.record_golden(&stimulus);
        wide.load_batch_upsets(&[]);
        assert!(wide.order.is_empty() && wide.ffs.is_empty() && wide.writers.is_empty());
        assert_eq!(wide.cone_size().0, 0);
        let mut out = Vec::new();
        for (c, iv) in stimulus.iter().enumerate() {
            let golden: Vec<u64> = dev.step(iv).into_iter().map(splat).collect();
            wide.step(iv, &mut out);
            assert_eq!(out, golden, "cycle {c}");
        }
    }

    #[test]
    #[should_panic(expected = "cycle 4 is past the 4-cycle golden trace")]
    fn stepping_past_the_golden_trace_panics() {
        let mut dev = tiny_design();
        let mut wide = WideEngine::new(&mut dev).expect("wide engine");
        let stimulus = vec![vec![true]; 4];
        wide.record_golden(&stimulus);
        wide.load_batch_upsets(&[]);
        let mut out = Vec::new();
        for iv in &stimulus {
            wide.step(iv, &mut out);
        }
        wide.step(&[true], &mut out);
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
        let mut dev = configure(&out_of_cone_config());
        let home = OUT_OF_CONE_HOME;

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
        let outside = |ids: &[u32], golden: usize| ids.iter().any(|&i| i as usize >= golden);
        wide.load_batch_upsets(&[upset]);
        assert!(outside(&wide.ffs, g.ffs), "lane reaches the out-of-cone FF");
        assert!(
            outside(&wide.brams, g.brams),
            "lane reaches the out-of-cone BRAM"
        );
        wide.repair();
        assert!(
            !outside(&wide.ffs, g.ffs),
            "repair drops the out-of-cone FF"
        );
        assert!(
            !outside(&wide.brams, g.brams),
            "repair drops the out-of-cone BRAM"
        );
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
        let mut dev = configure(&bram_chain_config());
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

    /// Flip mode bit `bit` of `remode_config(mode)`'s LUT in lane 1: the
    /// re-mode must be a reroute lane that shows at the outputs and
    /// tracks the scalar engine through corruption, repair and the
    /// persistence window after it.
    fn remode_matches_scalar(mode: LutMode, bit: usize) {
        let mut dev = configure(&remode_config(mode));
        let off = lut_mode_offset(0, 0) + bit;
        let global = dev.config().tile_bit_index(Tile::new(1, 0), off);
        let map = DeltaMap::build(&mut dev);
        let upset = match map.classify(&mut dev.clone(), global) {
            DeltaClass::Lane(u) if matches!(u.0, UpsetKind::Reroute { .. }) => u,
            other => panic!("{mode:?} mode bit {bit}: {other:?} is not a reroute lane"),
        };
        let mut wide = WideEngine::with_map(&mut dev, &map).expect("wide engine");
        assert!(lane_matches_scalar(&mut wide, &dev, global, upset) > 0);
    }

    #[test]
    fn remode_logic_to_ram_matches_scalar() {
        remode_matches_scalar(LutMode::Logic, 1);
    }

    #[test]
    fn remode_rom_to_srl16_matches_scalar() {
        remode_matches_scalar(LutMode::Rom, 1);
    }

    #[test]
    fn remode_ram_to_logic_matches_scalar() {
        remode_matches_scalar(LutMode::Ram, 1);
    }

    #[test]
    fn remode_srl16_to_rom_matches_scalar() {
        remode_matches_scalar(LutMode::Shift, 1);
    }

    #[test]
    fn remode_ram_srl16_matches_scalar() {
        remode_matches_scalar(LutMode::Ram, 0);
        remode_matches_scalar(LutMode::Shift, 0);
    }

    /// Diagnostics mode compiles every flip-flop, so a lane's network
    /// holds the fan-in of flip-flops no output observes. In tile (2, 1),
    /// LUT F inverts LUT G and feeds only its slice's flip-flop; one bit
    /// of LUT G's pin-0 select (East 4 → East 5) makes it read LUT F back
    /// through a U-turn on tile (2, 2), closing a loop the scalar compile
    /// relaxes. The triage must call it structural.
    #[test]
    fn diagnostics_loop_on_unobserved_flip_flop_is_structural() {
        let mut dev = configure(&diagnostics_loop_config());
        dev.set_compile_all_state(true);
        let g_pin0 = input_mux_offset(0, MuxPin::LutPin { lut: 1, pin: 0 });
        let bit = dev.config().tile_bit_index(DIAGNOSTICS_LOOP_TILE, g_pin0);

        let mut cyclic = dev.clone();
        cyclic.flip_config_bit(bit);
        assert!(cyclic.network_stats().has_comb_cycles);
        let map = DeltaMap::build(&mut dev);
        assert_eq!(map.classify(&mut dev.clone(), bit), DeltaClass::Structural);
    }

    /// Classify every closure bit of `dev` against `map` and batch the
    /// lanes as `run_campaign_wide` does: augmented lanes apart, each
    /// group in `lane_key` order, 63 to a batch.
    fn campaign_batches(dev: &Device, map: &DeltaMap) -> Vec<Vec<LaneUpset>> {
        let mut probe = dev.clone();
        let mut groups: [Vec<(u32, usize, LaneUpset)>; 2] = Default::default();
        for bit in probe.active_config_bits() {
            if let DeltaClass::Lane(u) = map.classify(&mut probe, bit) {
                groups[usize::from(u.is_augmented())].push((map.lane_key(&u), bit, u));
            }
        }
        let mut batches = Vec::new();
        for mut group in groups {
            group.sort_unstable_by_key(|&(key, bit, _)| (key, bit));
            let lanes: Vec<LaneUpset> = group.into_iter().map(|(_, _, u)| u).collect();
            batches.extend(lanes.chunks(LANES - 1).map(<[LaneUpset]>::to_vec));
        }
        batches
    }

    /// Every batch load sets each node's lane masks to what the
    /// root-by-root walk the operand index replaced gives, on the
    /// hand-built designs and on seeded random ones.
    #[test]
    fn batch_reach_masks_match_the_root_by_root_walk() {
        let (mut reroute_batches, mut overridden) = (0, 0);
        for (name, mut dev) in acyclic_designs(12) {
            let map = DeltaMap::build(&mut dev);
            let mut wide = WideEngine::with_map(&mut dev, &map).expect("wide engine");
            let (g, luts, ffs) = (map.golden, wide.net.luts.len(), wide.net.ffs.len());
            for (b, batch) in campaign_batches(&dev, &map).iter().enumerate() {
                wide.load_batch_upsets(batch);
                let reroutes = (1..=batch.len())
                    .filter(|&l| matches!(batch[l - 1].0, UpsetKind::Reroute { .. }))
                    .fold(0u64, |m, l| m | 1 << l);
                let seeds = wide.reach_seeds(reroutes);
                let held = crate::delta::reach_by_root(&wide.net, &seeds, |root| {
                    wide.ovs(root).iter().map(|&(lanes, src, _)| (lanes, src))
                });
                let golden = |n: usize| {
                    splat(if n < luts {
                        n < g.luts
                    } else if n < luts + ffs {
                        n - luts < g.ffs
                    } else {
                        n - luts - ffs < g.brams
                    })
                };
                let active = wide.lut_active.iter().chain(&wide.ff_active);
                for (n, &mask) in active.chain(&wide.bram_active).enumerate() {
                    let want = (golden(n) & !reroutes) | (held[n] & reroutes);
                    assert_eq!(mask, want, "{name}: batch {b}, node {n}");
                }
                reroute_batches += usize::from(reroutes != 0);
                overridden += (0..held.len()).filter(|&n| wide.overridden(n)).count();
            }
        }
        assert!(
            reroute_batches > 20,
            "{reroute_batches} batches with a reroute lane"
        );
        assert!(overridden > 100, "{overridden} overridden nodes walked");
    }
}
