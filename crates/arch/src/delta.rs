//! Dependency-tracked delta classification of configuration-bit upsets.
//!
//! The wide engine ([`crate::engine_wide`]) runs 63 experiments per
//! simulation pass, but only for upsets it can express as lane edits of
//! one shared network. The seed's triage called everything outside LUT
//! tables / FF inits / BRAM content "structural" and paid a full recompile
//! (and usually a scalar observe window) per bit — on a small design that
//! is ~94 % of the active closure, so batching bought almost nothing.
//!
//! [`DeltaMap`] removes that cliff. One *recording* trace over the golden
//! compiled network notes, for every configuration bit the compiler reads,
//! which network attachment points (`Root`s: a LUT pin mux, an FF control
//! mux, a BRAM interface mux, an output IOB entry) depend on it. The trace
//! is the compiler's own: the same tracer, over a node set that looks
//! nodes up instead of allocating them and records every bit its three
//! read helpers touch. So the recorded read set equals the compiler's by
//! construction. The compiler reads four kinds of bits outside any root,
//! and [`DeltaMap::classify`] decides each from the bit's role rather
//! than from a recorded reader:
//!
//! * a LUT's table: a lane overlay on a golden LUT, else benign;
//! * a LUT's mode: benign off the golden cone, or for the Logic↔ROM bit of
//!   a static LUT; otherwise a lane that re-modes the LUT's table writes.
//!   Static→dynamic rebinds its data and write-enable roots to their
//!   traced sources and sets the lane's write mode (RAM or SRL16);
//!   dynamic→static rebinds both to `Src::Zero`, so the lane never
//!   writes; RAM↔SRL16 sets the write mode alone. The write roots of a
//!   static LUT are not the compiler's, so they read no bit in the
//!   recorded read set;
//! * a flip-flop's init: a lane overlay on a golden flip-flop, else
//!   benign;
//! * an east IOB entry, which binds an output port: the port vector is
//!   rebuilt with that one entry re-read. A flip that leaves a disabled
//!   entry disabled binds no port, so it is benign without the rebuild.
//!
//! (BRAM content is never compiled: the engines read it live, and a flip
//! is a lane overlay on a golden block, else benign.) Every other bit is
//! classified through the recorded read set:
//!
//! * **No golden reader** — the golden compile never read the bit.
//!   Compilation is a deterministic adaptive reader: a run that never
//!   reads a bit cannot behave differently when that bit changes, so the
//!   corrupted compile is bit-for-bit the golden one. Benign, proven.
//! * **Read by some roots** — flip the bit in place and re-trace just
//!   those roots read-only. Each root that now resolves to a different
//!   source becomes a `DeltaOp`; the set of ops is a per-lane network
//!   edit the wide engine applies as lane-masked source overrides. Zero
//!   ops ⇒ the corrupted network is behaviourally the golden one ⇒ benign.
//! * **Structural** — the lane's corrupted network has a combinational
//!   cycle, counting a dynamic LUT's data and write-enable edges the way
//!   the compiler's settle order does (the scalar engine's relaxation of a
//!   cycle is warm-start history dependent). Only these pay the scalar
//!   recompile path.
//!
//! A re-trace may reach a LUT, flip-flop or BRAM outside the golden cone.
//! [`DeltaMap::build`] finds every such site up front: it flips each
//! golden-read bit once, re-traces its readers, traces the write roots of
//! every static golden LUT a re-mode could make dynamic, and compiles the
//! golden configuration again with the sites reached as extra roots,
//! repeating until no new site appears. Ops resolve against this
//! *augmented* network. Its golden nodes keep their ids as a prefix; the
//! out-of-cone nodes after them hold golden-configuration state that only
//! a lane reaching them ever clocks. Their own state bits stay benign,
//! since the golden compile never reads them.
//!
//! Soundness leans on two facts. First, the augmented network holds every
//! node a single-bit corrupted compile of a golden-read bit can contain,
//! so its node arrays host every lane's variant. Second, every admitted
//! lane is acyclic. Either its new LUT edges all run forward in the
//! augmented settle order over an acyclic fan-in, so one sweep settles
//! it; or an explicit check over the lane's reachable network finds no
//! cycle, and the lane is marked to settle by repeated sweeps. That is
//! exact, because an acyclic network has one combinational solution.

use crate::bits::{lut_mode_offset, BitRole, LutMode};
use crate::compile::{
    compile_with, port_vector, CBram, CFf, CLut, Compiled, Incompat, NodeCounts, NodeSet, Root,
    Site, Src, Tracer,
};
use crate::device::Device;
use crate::engine_wide::{node_index, Adjacency, WideTarget};
use crate::frames::{BitLocus, Edge, IobEntry};
use crate::geometry::{Geometry, BRAM_WIDTH, WIRES_PER_DIR};

/// One edit in a lane's corrupted network, against augmented node ids.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DeltaOp {
    /// The root now reads this source (never an `OutEntry` root: those
    /// change the port vector, see `Outputs`).
    Rebind(Root, Src),
    /// The corrupted output-port vector (may differ in length from the
    /// golden one; the campaign comparator handles length mismatch).
    /// `seeds` holds the sources of *all* enabled east entries — including
    /// those whose port binding a later scan entry overwrites — because
    /// the compiler traces every enabled entry and the traced cones keep
    /// clocking even when their port binding is shadowed.
    Outputs {
        outs: Vec<(Src, bool)>,
        seeds: Vec<Src>,
    },
    /// The lane writes LUT `lut`'s table at run time: by shifting (SRL16)
    /// if `shift`, else at the pin address (RAM). A re-mode to RAM or
    /// SRL16 carries it; a re-mode to a static mode instead rebinds the
    /// write enable to `Src::Zero`.
    WriteMode { lut: u32, shift: bool },
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum UpsetKind {
    /// A state overlay: XOR one lane bit of packed table/init/content.
    State(WideTarget),
    /// A network edit: lane-masked source overrides and LUT write modes.
    /// `outside`: some op reads a node outside the golden cone.
    /// `resweep`: the lane is acyclic but not in settle order, so its
    /// batch settles by repeated sweeps. (A boxed slice keeps a campaign's
    /// tens of thousands of lanes free of `Vec` capacity slack.)
    Reroute {
        ops: Box<[DeltaOp]>,
        outside: bool,
        resweep: bool,
    },
}

/// A single-bit upset the wide engine can carry in one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneUpset(pub(crate) UpsetKind);

impl LaneUpset {
    pub(crate) fn state(t: WideTarget) -> LaneUpset {
        LaneUpset(UpsetKind::State(t))
    }

    /// True if the lane needs an augmented batch: it reads a node outside
    /// the golden cone, or settles only by repeated sweeps. Batching these
    /// lanes together keeps every other batch on the golden network's
    /// single sweep.
    pub fn is_augmented(&self) -> bool {
        matches!(self.0, UpsetKind::Reroute { outside, resweep, .. } if outside || resweep)
    }
}

/// Classification of one global configuration-bit flip.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaClass {
    /// Expressible as a wide-engine lane: run it 63-per-pass.
    Lane(LaneUpset),
    /// Provably inert: the compiled network never reads the bit, or the
    /// flip re-derives an identical network.
    Benign,
    /// Needs the scalar recompile path: the corrupted network has a
    /// combinational cycle (a dynamic LUT's data and write-enable edges
    /// count, as in the compiler's settle order), or a re-trace left the
    /// augmented network.
    Structural,
}

/// What flipping one bit does to the network, before lane admission.
enum Delta {
    /// Decided without an edit: a state overlay, or benign.
    Class(DeltaClass),
    /// The edit a re-trace derives (no op if the network is unchanged),
    /// or `Incompat` if the re-trace left the augmented network.
    Edit(Result<Vec<DeltaOp>, Incompat>),
}

/// Call `f(root, source)` for every root of node `n` (an id of
/// [`node_id`]'s numbering), with the network's own source. A static
/// LUT's write roots read `Src::Zero` here, so only a lane that re-modes
/// the LUT and rebinds them gives them a source.
fn for_each_root(net: &Compiled, n: usize, mut f: impl FnMut(Root, Src)) {
    let (luts, ffs) = (net.luts.len(), net.ffs.len());
    if n < luts {
        let (l, lut) = (&net.luts[n], n as u32);
        for (pin, &s) in l.pins.iter().enumerate() {
            let pin = pin as u8;
            f(Root::LutPin { lut, pin }, s);
        }
        f(Root::LutData { lut }, l.data);
        f(Root::LutWe { lut }, l.we);
    } else if n < luts + ffs {
        let (x, ff) = (&net.ffs[n - luts], (n - luts) as u32);
        f(Root::FfD { ff }, x.d);
        f(Root::FfCe { ff }, x.ce);
        f(Root::FfSr { ff }, x.sr);
    } else {
        let bram = (n - luts - ffs) as u32;
        let b = &net.brams[bram as usize];
        for (i, &s) in b.addr.iter().enumerate() {
            f(Root::BramAddr { bram, i: i as u8 }, s);
        }
        for (i, &s) in b.din.iter().enumerate() {
            f(Root::BramDin { bram, i: i as u8 }, s);
        }
        f(Root::BramWe { bram }, b.we);
        f(Root::BramEn { bram }, b.en);
    }
}

/// The id of node `s` in the numbering of the operand index
/// ([`node_index`]): the LUTs, then the flip-flops, then the BRAM blocks,
/// each by compiled id. Anything else is no node.
fn node_id(net: &Compiled, s: Src) -> Option<usize> {
    let (luts, ffs) = (net.luts.len(), net.ffs.len());
    match s {
        Src::Lut(i) => Some(i as usize),
        Src::Ff(i) => Some(luts + i as usize),
        Src::Bram { id, .. } => Some(luts + ffs + id as usize),
        _ => None,
    }
}

/// The node that owns `root` (none for an output entry).
fn root_node(net: &Compiled, root: Root) -> Option<usize> {
    let (luts, ffs) = (net.luts.len(), net.ffs.len());
    Some(match root {
        Root::LutPin { lut, .. } | Root::LutData { lut } | Root::LutWe { lut } => lut as usize,
        Root::FfD { ff } | Root::FfCe { ff } | Root::FfSr { ff } => luts + ff as usize,
        Root::BramAddr { bram, .. }
        | Root::BramDin { bram, .. }
        | Root::BramWe { bram }
        | Root::BramEn { bram } => luts + ffs + bram as usize,
        Root::OutEntry { .. } => return None,
    })
}

/// Add lanes `m` to node `n`, if it is one, queueing it if that grew its
/// mask.
#[inline]
fn grow(held: &mut [u64], work: &mut Vec<u32>, n: Option<usize>, m: u64) {
    if let Some(n) = n.filter(|&n| m & !held[n] != 0) {
        held[n] |= m;
        work.push(n as u32);
    }
}

/// Which lanes' networks hold each node of `net`, by node id (see
/// [`node_id`]). Lane bits enter at `seeds` and flow from every held node
/// to the sources its roots read: through `reads`, the network's operand
/// index, at a node `overridden` says carries no lane override, and root
/// by root at one that does, where `ovs(root)` rebinds the root for the
/// lanes in each mask. The least fixpoint is, lane by lane, exactly the
/// node set a scalar compile of that lane's network holds — found for
/// all lanes in one pass.
pub(crate) fn reach<I: IntoIterator<Item = (u64, Src)>>(
    net: &Compiled,
    reads: &Adjacency,
    seeds: &[(Src, u64)],
    overridden: impl Fn(usize) -> bool,
    ovs: impl Fn(Root) -> I,
) -> Vec<u64> {
    let n = net.luts.len() + net.ffs.len() + net.brams.len();
    let (mut held, mut work) = (vec![0u64; n], Vec::new());
    for &(s, m) in seeds {
        grow(&mut held, &mut work, node_id(net, s), m);
    }
    while let Some(i) = work.pop() {
        let (i, m) = (i as usize, held[i as usize]);
        if !overridden(i) {
            for &j in reads.of(i) {
                grow(&mut held, &mut work, Some(j as usize), m);
            }
            continue;
        }
        for_each_root(net, i, |root, base| {
            let mut through = m;
            for (lanes, src) in ovs(root) {
                grow(&mut held, &mut work, node_id(net, src), m & lanes);
                through &= !lanes;
            }
            grow(&mut held, &mut work, node_id(net, base), through);
        });
    }
    held
}

/// True if the LUTs with a bit in `held` form a combinational cycle when
/// each root reads `src_of(root, network source)`: the scalar compile of
/// that network would relax it iteratively. A LUT `overridden` says keeps
/// its network sources reads what `reads` lists; the others are read root
/// by root.
fn has_cycle(
    net: &Compiled,
    reads: &Adjacency,
    held: &[u64],
    overridden: impl Fn(usize) -> bool,
    src_of: impl Fn(Root, Src) -> Src,
) -> bool {
    let n = net.luts.len();
    // (read LUT, reading LUT) per edge between held LUTs.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in (0..n).filter(|&i| held[i] != 0) {
        if overridden(i) {
            for_each_root(net, i, |root, base| {
                if let Src::Lut(j) = src_of(root, base) {
                    edges.push((j, i as u32));
                }
            });
        } else {
            let luts = reads.of(i).iter().take_while(|&&j| (j as usize) < n);
            edges.extend(luts.map(|&j| (j, i as u32)));
        }
    }
    let mut indeg = vec![0u32; n];
    for &(_, i) in &edges {
        indeg[i as usize] += 1;
    }
    let readers = Adjacency::from_edges(n, edges.iter().copied());
    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&i| held[i as usize] != 0 && indeg[i as usize] == 0)
        .collect();
    let mut left = held[..n].iter().filter(|&&m| m != 0).count();
    while let Some(j) = ready.pop() {
        left -= 1;
        for &i in readers.of(j as usize) {
            indeg[i as usize] -= 1;
            if indeg[i as usize] == 0 {
                ready.push(i);
            }
        }
    }
    left > 0
}

/// The root-by-root walk [`reach`] replaced, kept as its test oracle:
/// every held node's roots are visited one by one, with `ovs(root)`
/// rebinding each for the lanes in its masks.
#[cfg(test)]
pub(crate) fn reach_by_root<I: IntoIterator<Item = (u64, Src)>>(
    net: &Compiled,
    seeds: &[(Src, u64)],
    ovs: impl Fn(Root) -> I,
) -> Vec<u64> {
    let n = net.luts.len() + net.ffs.len() + net.brams.len();
    let (mut held, mut work) = (vec![0u64; n], Vec::new());
    for &(s, m) in seeds {
        grow(&mut held, &mut work, node_id(net, s), m);
    }
    while let Some(i) = work.pop() {
        let m = held[i as usize];
        for_each_root(net, i as usize, |root, base| {
            let mut through = m;
            for (lanes, src) in ovs(root) {
                grow(&mut held, &mut work, node_id(net, src), m & lanes);
                through &= !lanes;
            }
            grow(&mut held, &mut work, node_id(net, base), through);
        });
    }
    held
}

/// The cycle check [`has_cycle`] replaced, kept as its test oracle: one
/// reader list per LUT, every held LUT read root by root.
#[cfg(test)]
fn has_cycle_by_root(net: &Compiled, held: &[u64], src_of: impl Fn(Root, Src) -> Src) -> bool {
    let n = net.luts.len();
    let mut indeg = vec![0u32; n];
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in (0..n).filter(|&i| held[i] != 0) {
        for_each_root(net, i, |root, base| {
            if let Src::Lut(j) = src_of(root, base) {
                readers[j as usize].push(i as u32);
                indeg[i] += 1;
            }
        });
    }
    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&i| held[i as usize] != 0 && indeg[i as usize] == 0)
        .collect();
    let mut left = held[..n].iter().filter(|&&m| m != 0).count();
    while let Some(j) = ready.pop() {
        left -= 1;
        for &i in &readers[j as usize] {
            indeg[i as usize] -= 1;
            if indeg[i as usize] == 0 {
                ready.push(i);
            }
        }
    }
    left > 0
}

/// The source `root` reads in `net` (output entries have none here: their
/// sources live in the port vector).
fn net_src(net: &Compiled, root: Root) -> Option<Src> {
    Some(match root {
        Root::LutPin { lut, pin } => net.luts[lut as usize].pins[pin as usize],
        Root::LutData { lut } => net.luts[lut as usize].data,
        Root::LutWe { lut } => net.luts[lut as usize].we,
        Root::FfD { ff } => net.ffs[ff as usize].d,
        Root::FfCe { ff } => net.ffs[ff as usize].ce,
        Root::FfSr { ff } => net.ffs[ff as usize].sr,
        Root::BramAddr { bram, i } => net.brams[bram as usize].addr[i as usize],
        Root::BramDin { bram, i } => net.brams[bram as usize].din[i as usize],
        Root::BramWe { bram } => net.brams[bram as usize].we,
        Root::BramEn { bram } => net.brams[bram as usize].en,
        Root::OutEntry { .. } => return None,
    })
}

/// One lane's rebinds, each as a one-lane override list.
fn rebinds(ops: &[DeltaOp]) -> Vec<(Root, [(u64, Src); 1])> {
    let rebinds = ops.iter().filter_map(|op| match *op {
        DeltaOp::Rebind(root, src) => Some((root, [(1, src)])),
        _ => None,
    });
    rebinds.collect()
}

/// The overrides `rebinds` installs on `root` (empty if none).
fn lane_ovs(rebinds: &[(Root, [(u64, Src); 1])], root: Root) -> &[(u64, Src)] {
    let ov = rebinds.iter().find(|(r, _)| *r == root);
    ov.map_or(&[][..], |(_, ov)| &ov[..])
}

/// The delta map's node set: a compiled network's nodes, looked up.
/// While the map is built, a trace either records each configuration bit
/// it reads under its root, or notes each site the network lacks and
/// reads it as floating. A classifying re-trace does neither, and a
/// missing site fails it.
struct Lookup<'a> {
    net: &'a Compiled,
    rec: Option<(&'a mut Vec<(usize, Root)>, Root)>,
    missing: Option<&'a mut Vec<Site>>,
}

impl NodeSet for Lookup<'_> {
    fn nodes(&self) -> (&[CLut], &[CFf], &[CBram]) {
        (&self.net.luts, &self.net.ffs, &self.net.brams)
    }

    fn node(&mut self, geom: &Geometry, site: Site) -> Result<Option<u32>, Incompat> {
        if let Some(id) = self.net.node(geom, site) {
            return Ok(Some(id));
        }
        self.missing.as_mut().ok_or(Incompat)?.push(site);
        Ok(None)
    }

    fn recorder(&mut self) -> Option<(&mut Vec<(usize, Root)>, Root)> {
        self.rec.as_mut().map(|(deps, root)| (&mut **deps, *root))
    }
}

/// A tracer over `net` that neither records nor notes missing sites.
fn tracer<'a>(dev: &'a Device, net: &'a Compiled) -> Tracer<'a, Lookup<'a>> {
    let nodes = Lookup {
        net,
        rec: None,
        missing: None,
    };
    Tracer { dev, nodes }
}

/// Every root the compiler traces of the nodes with ids at or past
/// `from` (a static LUT's write roots are not among them).
fn roots_past(net: &Compiled, from: NodeCounts) -> Vec<Root> {
    let to = NodeCounts::of(net);
    let nodes = (from.luts..to.luts)
        .chain(to.luts + from.ffs..to.luts + to.ffs)
        .chain(to.luts + to.ffs + from.brams..to.luts + to.ffs + to.brams);
    let mut roots = Vec::new();
    for node in nodes {
        for_each_root(net, node, |root, _| match root {
            Root::LutData { lut } | Root::LutWe { lut }
                if !net.luts[lut as usize].mode.is_dynamic() => {}
            _ => roots.push(root),
        });
    }
    roots
}

/// The entries of `deps` (sorted by bit) that read `global`.
fn readers(deps: &[(usize, Root)], global: usize) -> &[(usize, Root)] {
    let lo = deps.partition_point(|&(b, _)| b < global);
    let hi = deps.partition_point(|&(b, _)| b <= global);
    &deps[lo..hi]
}

/// The per-design dependency map: configuration bit → network roots that
/// read it, plus the augmented network every lane resolves against.
#[derive(Debug, Clone)]
pub struct DeltaMap {
    /// The golden compile plus every out-of-cone node a single-bit
    /// re-trace reaches, golden nodes first.
    pub(crate) net: Compiled,
    /// Node counts of the golden compile: ids below them are the golden
    /// cone.
    pub(crate) golden: NodeCounts,
    /// Settle position of each LUT in `net.order`.
    pos: Vec<u32>,
    /// The operand index of `net` (see [`node_index`]).
    reads: Adjacency,
    /// (global bit, reading root) over the golden roots, sorted by bit.
    deps: Vec<(usize, Root)>,
    /// The same over the out-of-cone roots, kept only for golden-read
    /// bits (no other bit is ever re-traced).
    ext_deps: Vec<(usize, Root)>,
    /// All east-IOB entries in scan order (row-major), enabled or not.
    east_entries: Vec<IobEntry>,
    /// Golden source per *enabled* east entry, parallel to `east_entries`.
    east_srcs: Vec<Option<Src>>,
    /// Diagnostics mode: every flip-flop is a compile root.
    all_state: bool,
}

impl DeltaMap {
    /// Record the golden compile's complete configuration read set, then
    /// augment the network with every out-of-cone site a single-bit
    /// re-trace reaches. Costs one trace pass plus one re-trace of every
    /// golden-read bit, comparable to triaging the closure once.
    pub fn build(dev: &mut Device) -> DeltaMap {
        Self::build_with(dev, |_| true)
    }

    /// [`DeltaMap::build`] with the augmentation probing only the flips
    /// of `bits` — the bits a campaign will classify. Any other bit still
    /// classifies soundly, but a re-trace that leaves the network sends
    /// it to the scalar path.
    pub fn build_for(dev: &mut Device, bits: &[usize]) -> DeltaMap {
        let mut sorted = bits.to_vec();
        sorted.sort_unstable();
        Self::build_with(dev, |b| sorted.binary_search(&b).is_ok())
    }

    fn build_with(dev: &mut Device, probed: impl Fn(usize) -> bool) -> DeltaMap {
        dev.ensure_compiled();
        let net = dev.compiled.as_ref().expect("compiled above").clone();
        let golden = NodeCounts::of(&net);
        let mut map = DeltaMap {
            pos: Vec::new(),
            reads: Adjacency::from_edges(0, std::iter::empty()),
            deps: Vec::new(),
            ext_deps: Vec::new(),
            east_entries: Vec::new(),
            east_srcs: Vec::new(),
            all_state: dev.compile_all_state,
            golden,
            net,
        };

        let rows = dev.geom.rows;
        let mut roots = roots_past(&map.net, NodeCounts::default());
        for row in 0..rows {
            for wire in 0..WIRES_PER_DIR {
                let e = dev.config.read_iob(Edge::East, row, wire);
                map.east_entries.push(e);
                if e.enabled {
                    roots.push(Root::OutEntry {
                        row: row as u16,
                        wire: wire as u8,
                    });
                }
            }
        }
        map.east_srcs = vec![None; rows * WIRES_PER_DIR];
        map.deps = map.record(dev, &roots);
        map.augment(dev, probed);

        map.pos = vec![0u32; map.net.luts.len()];
        for (i, &li) in map.net.order.iter().enumerate() {
            map.pos[li as usize] = i as u32;
        }
        map.reads = node_index(&map.net).1;
        map
    }

    /// Trace `roots` against the golden configuration, recording every bit
    /// each reads; returns the (bit, root) pairs sorted by bit. Output
    /// entries also fill `east_srcs`.
    fn record(&mut self, dev: &Device, roots: &[Root]) -> Vec<(usize, Root)> {
        let mut deps = Vec::new();
        for &root in roots {
            let mut t = tracer(dev, &self.net);
            t.nodes.rec = Some((&mut deps, root));
            // The network holds its own fan-in, so golden traces resolve.
            let src = t.root_src(root).unwrap_or(Src::Zero);
            match root {
                Root::OutEntry { row, wire } => {
                    self.east_srcs[row as usize * WIRES_PER_DIR + wire as usize] = Some(src);
                }
                _ => debug_assert_eq!(Some(src), net_src(&self.net, root)),
            }
        }
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Grow the network to hold every out-of-cone site a single-bit flip
    /// of a golden-read bit lets a re-trace reach, recompiling the golden
    /// configuration with those sites as extra roots until no new site
    /// appears.
    fn augment(&mut self, dev: &mut Device, probed: impl Fn(usize) -> bool) {
        // Enabling a disabled east entry binds a port to a fresh wire.
        let mut missing = Vec::new();
        for (idx, e) in self.east_entries.iter().enumerate() {
            if !e.enabled {
                let mut t = tracer(dev, &self.net);
                t.nodes.missing = Some(&mut missing);
                let _ = t.root_src(Root::OutEntry {
                    row: (idx / WIRES_PER_DIR) as u16,
                    wire: (idx % WIRES_PER_DIR) as u8,
                });
            }
        }
        // A static LUT re-moded to RAM or SRL16 traces its write roots.
        for lut in 0..self.golden.luts as u32 {
            if !self.net.luts[lut as usize].mode.is_dynamic() && probed(self.dynamic_bit(dev, lut))
            {
                for root in [Root::LutData { lut }, Root::LutWe { lut }] {
                    let mut t = tracer(dev, &self.net);
                    t.nodes.missing = Some(&mut missing);
                    let _ = t.root_src(root);
                }
            }
        }
        let probe: Vec<(usize, Root)> = self.deps.iter().filter(|d| probed(d.0)).copied().collect();
        self.reached_sites(dev, &probe, &mut missing);

        let mut extra: Vec<Site> = Vec::new();
        loop {
            let before = extra.len();
            for site in missing.drain(..) {
                if !extra[before..].contains(&site) {
                    extra.push(site);
                }
            }
            if extra.len() == before {
                break;
            }
            let from = NodeCounts::of(&self.net);
            self.net = compile_with(dev, &extra);
            let roots = roots_past(&self.net, from);
            let mut new_deps = self.record(dev, &roots);
            new_deps.retain(|&(b, _)| !readers(&self.deps, b).is_empty());
            self.ext_deps.extend_from_slice(&new_deps);
            // Only the new roots can reach sites not yet compiled: an
            // older root's re-trace ends at a node this round added.
            new_deps.retain(|d| probed(d.0));
            self.reached_sites(dev, &new_deps, &mut missing);
        }
        self.ext_deps.sort_unstable();
    }

    /// The global index of the mode bit that makes LUT `lut` static or
    /// dynamic (Logic↔RAM, ROM↔SRL16).
    fn dynamic_bit(&self, dev: &Device, lut: u32) -> usize {
        let l = &self.net.luts[lut as usize];
        let off = lut_mode_offset(l.slice as usize, l.lut as usize) + 1;
        dev.config.tile_bit_index(l.tile, off)
    }

    /// Flip each bit of `deps` (sorted by bit) in turn and re-trace its
    /// readers there, collecting the sites the network lacks.
    fn reached_sites(&self, dev: &mut Device, deps: &[(usize, Root)], missing: &mut Vec<Site>) {
        let mut k = 0;
        while k < deps.len() {
            let group = readers(&deps[k..], deps[k].0);
            dev.config.flip_bit(group[0].0);
            for &(_, root) in group {
                let mut t = tracer(dev, &self.net);
                t.nodes.missing = Some(&mut *missing);
                let _ = t.root_src(root);
            }
            dev.config.flip_bit(group[0].0);
            k += group.len();
        }
    }

    /// Classify a global configuration-bit flip against `dev`, which must
    /// hold the same golden configuration the map was built from. The
    /// configuration is probed by a temporary in-place flip (restored
    /// before returning); the compiled cache is never touched.
    pub fn classify(&self, dev: &mut Device, global: usize) -> DeltaClass {
        self.admit(self.delta(dev, global))
    }

    /// The class of `delta`: an edit that left the augmented network is
    /// structural, an empty one benign, any other a lane if
    /// [`DeltaMap::lane`] admits it.
    fn admit(&self, delta: Delta) -> DeltaClass {
        match delta {
            Delta::Class(class) => class,
            Delta::Edit(Err(Incompat)) => DeltaClass::Structural,
            Delta::Edit(Ok(ops)) if ops.is_empty() => DeltaClass::Benign,
            Delta::Edit(Ok(ops)) => self.lane(ops),
        }
    }

    /// What flipping `global` does to the network, before lane admission.
    fn delta(&self, dev: &mut Device, global: usize) -> Delta {
        let overlay = |t| Delta::Class(DeltaClass::Lane(LaneUpset::state(t)));
        let benign = Delta::Class(DeltaClass::Benign);
        match dev.config.describe(global) {
            BitLocus::Clb { tile, role } => match role {
                BitRole::LutTable { slice, lut, bit } => self
                    .golden_node(dev, Site::Lut { tile, slice, lut })
                    .map_or(benign, |id| overlay(WideTarget::LutTable { lut: id, bit })),
                BitRole::FfInit { slice, ff } => self
                    .golden_node(dev, Site::Ff { tile, slice, ff })
                    .map_or(benign, |id| overlay(WideTarget::FfInit { ff: id })),
                BitRole::SliceReserved { .. } | BitRole::Pad => benign,
                BitRole::LutModeBit { slice, lut, bit } => self
                    .golden_node(dev, Site::Lut { tile, slice, lut })
                    .map_or(benign, |id| Delta::Edit(self.remode(dev, id, bit))),
                _ => self.deps_delta(dev, global),
            },
            BitLocus::BramContent { col, block, bit } => self
                .golden_node(dev, Site::Bram { col, block })
                .map_or(benign, |mem| {
                    overlay(WideTarget::BramBit {
                        mem,
                        addr: (bit as usize / BRAM_WIDTH) as u16,
                        plane: (bit as usize % BRAM_WIDTH) as u8,
                    })
                }),
            BitLocus::Iob {
                edge: Edge::East,
                row,
                wire,
                bit,
            } => {
                // A disabled entry binds no port while it stays disabled,
                // so the port vector stays golden.
                let golden = self.east_entries[row as usize * WIRES_PER_DIR + wire as usize];
                if !golden.enabled && !IobEntry::decode(golden.encode() ^ (1 << bit)).enabled {
                    return benign;
                }
                Delta::Edit(self.east_entry_edit(dev, global, (row, wire)))
            }
            _ => self.deps_delta(dev, global),
        }
    }

    /// The edit a flip of bit `global` of east entry `entry` makes: the
    /// port vector rebuilt with that entry re-read.
    fn east_entry_edit(
        &self,
        dev: &mut Device,
        global: usize,
        entry: (u16, u8),
    ) -> Result<Vec<DeltaOp>, Incompat> {
        dev.config.flip_bit(global);
        let r = self.recompute_outputs(dev, Some(entry), &[]);
        dev.config.flip_bit(global);
        r.map(Vec::from_iter)
    }

    /// Where lane `u` strikes, as a sort key: the settle position of the
    /// earliest node it touches, with the flip-flops counted after every LUT
    /// and the BRAM blocks after every flip-flop (`u32::MAX` for a lane
    /// that rebinds output ports only). Lanes that strike the same node
    /// share their forward cone, so batching a campaign's lanes in this
    /// order shrinks the cone each batch evaluates.
    pub fn lane_key(&self, u: &LaneUpset) -> u32 {
        let (luts, ffs) = (self.net.luts.len() as u32, self.net.ffs.len() as u32);
        let lut = |i: u32| self.pos[i as usize];
        let node = |root| {
            let n = root_node(&self.net, root)? as u32;
            Some(if n < luts { lut(n) } else { n })
        };
        match &u.0 {
            UpsetKind::State(WideTarget::LutTable { lut: i, .. }) => lut(*i),
            UpsetKind::State(WideTarget::FfInit { ff }) => luts + ff,
            UpsetKind::State(WideTarget::BramBit { mem, .. }) => luts + ffs + mem,
            UpsetKind::Reroute { ops, .. } => ops
                .iter()
                .filter_map(|op| match *op {
                    DeltaOp::Rebind(root, _) => node(root),
                    DeltaOp::WriteMode { lut: i, .. } => Some(lut(i)),
                    DeltaOp::Outputs { .. } => None,
                })
                .min()
                .unwrap_or(u32::MAX),
        }
    }

    /// Compiled id of the golden-cone node at `site`, if there is one.
    fn golden_node(&self, dev: &Device, site: Site) -> Option<u32> {
        let golden = match site {
            Site::Lut { .. } => self.golden.luts,
            Site::Ff { .. } => self.golden.ffs,
            Site::Bram { .. } => self.golden.brams,
        };
        self.net
            .node(&dev.geom, site)
            .filter(|&id| (id as usize) < golden)
    }

    /// The edit flipping mode bit `bit` of golden LUT `lut` makes. Between
    /// two static modes (Logic↔ROM) the tables behave alike: none. Between
    /// two dynamic modes (RAM↔SRL16) only the write mode changes. Across
    /// the two, the write roots rebind: to their traced sources when the
    /// LUT starts writing, to `Src::Zero` when it stops.
    fn remode(&self, dev: &Device, lut: u32, bit: u8) -> Result<Vec<DeltaOp>, Incompat> {
        let golden = self.net.luts[lut as usize].mode;
        let mode = LutMode::from_bits(golden as u64 ^ (1 << bit));
        let mut ops = Vec::new();
        if golden.is_dynamic() != mode.is_dynamic() {
            for root in [Root::LutData { lut }, Root::LutWe { lut }] {
                let src = if mode.is_dynamic() {
                    tracer(dev, &self.net).root_src(root)?
                } else {
                    Src::Zero
                };
                if Some(src) != net_src(&self.net, root) {
                    ops.push(DeltaOp::Rebind(root, src));
                }
            }
        }
        if mode.is_dynamic() {
            let shift = mode == LutMode::Shift;
            ops.push(DeltaOp::WriteMode { lut, shift });
        }
        Ok(ops)
    }

    /// The delta through the recorded read set: no golden reader ⇒
    /// benign; otherwise flip in place and re-derive exactly the reading
    /// roots, golden and out-of-cone.
    fn deps_delta(&self, dev: &mut Device, global: usize) -> Delta {
        let golden = readers(&self.deps, global);
        if golden.is_empty() {
            return Delta::Class(DeltaClass::Benign);
        }
        let roots = golden.iter().chain(readers(&self.ext_deps, global));
        dev.config.flip_bit(global);
        let r = self.delta_ops(dev, roots);
        dev.config.flip_bit(global);
        Delta::Edit(r)
    }

    /// Re-trace `roots` against the (already corrupted) configuration,
    /// diffing each against its network source.
    fn delta_ops<'r>(
        &self,
        dev: &Device,
        roots: impl IntoIterator<Item = &'r (usize, Root)>,
    ) -> Result<Vec<DeltaOp>, Incompat> {
        let mut ops = Vec::new();
        let mut entries: Vec<(u16, u8)> = Vec::new();
        for &(_, root) in roots {
            if let Root::OutEntry { row, wire } = root {
                if !entries.contains(&(row, wire)) {
                    entries.push((row, wire));
                }
                continue;
            }
            let src = tracer(dev, &self.net).root_src(root)?;
            if Some(src) != net_src(&self.net, root) {
                ops.push(DeltaOp::Rebind(root, src));
            }
        }
        if !entries.is_empty() {
            if let Some(op) = self.recompute_outputs(dev, None, &entries)? {
                ops.push(op);
            }
        }
        Ok(ops)
    }

    /// Admit a reroute as a lane unless its corrupted network has a
    /// combinational cycle. New LUT edges that all run forward in the
    /// settle order, over nodes whose fan-in the order already settles,
    /// admit it outright; otherwise the lane's reachable network is
    /// checked for a cycle, and an acyclic lane settles by repeated
    /// sweeps.
    fn lane(&self, ops: Vec<DeltaOp>) -> DeltaClass {
        let (outside, resweep) = self.placement(&ops);
        if resweep && self.closes_cycle(&ops) {
            return DeltaClass::Structural;
        }
        DeltaClass::Lane(LaneUpset(UpsetKind::Reroute {
            ops: ops.into_boxed_slice(),
            outside,
            resweep,
        }))
    }

    /// Whether lane `ops` reads a node outside the golden cone, and
    /// whether it settles only by repeated sweeps.
    fn placement(&self, ops: &[DeltaOp]) -> (bool, bool) {
        let outside = ops.iter().any(|op| match op {
            DeltaOp::Rebind(_, s) => self.golden.beyond(*s),
            DeltaOp::Outputs { seeds, .. } => seeds.iter().any(|&s| self.golden.beyond(s)),
            DeltaOp::WriteMode { .. } => false,
        });
        let in_order = ops.iter().all(|op| match *op {
            DeltaOp::Rebind(
                Root::LutPin { lut, .. } | Root::LutData { lut } | Root::LutWe { lut },
                Src::Lut(j),
            ) => self.pos[j as usize] < self.pos[lut as usize],
            _ => true,
        });
        // Golden nodes never read out-of-cone ones, so only a lane that
        // reaches past the cone can meet a cycle the order leaves unsorted.
        (outside, !in_order || (outside && self.net.iterative))
    }

    /// True if the lane network `ops` makes of the augmented one holds a
    /// combinational cycle: its reach from the lane's seeds, then a cycle
    /// check over the LUTs reached, both through the operand index except
    /// at the nodes `ops` rebinds.
    fn closes_cycle(&self, ops: &[DeltaOp]) -> bool {
        let rebinds = rebinds(ops);
        let ovs = |root| lane_ovs(&rebinds, root);
        let rebound = |n| {
            rebinds
                .iter()
                .any(|&(r, _)| root_node(&self.net, r) == Some(n))
        };
        let seeds: Vec<(Src, u64)> = self.lane_seeds(ops).into_iter().map(|s| (s, 1)).collect();
        let held = reach(&self.net, &self.reads, &seeds, rebound, |root| {
            ovs(root).iter().copied()
        });
        let src_of = |root, base| ovs(root).first().map_or(base, |&(_, s)| s);
        has_cycle(&self.net, &self.reads, &held, rebound, src_of)
    }

    /// [`DeltaMap::closes_cycle`] by the test oracles: the root-by-root
    /// reach and cycle check.
    #[cfg(test)]
    fn closes_cycle_by_root(&self, ops: &[DeltaOp]) -> bool {
        let rebinds = rebinds(ops);
        let ovs = |root| lane_ovs(&rebinds, root);
        let seeds: Vec<(Src, u64)> = self.lane_seeds(ops).into_iter().map(|s| (s, 1)).collect();
        let held = reach_by_root(&self.net, &seeds, |root| ovs(root).iter().copied());
        let src_of = |root, base| ovs(root).first().map_or(base, |&(_, s)| s);
        has_cycle_by_root(&self.net, &held, src_of)
    }

    /// What a lane's corrupted compile roots at: every enabled east
    /// entry's source, plus every flip-flop in diagnostics mode.
    fn lane_seeds(&self, ops: &[DeltaOp]) -> Vec<Src> {
        let mut seeds: Vec<Src> = match ops.iter().find_map(|op| match op {
            DeltaOp::Outputs { seeds, .. } => Some(seeds),
            _ => None,
        }) {
            Some(seeds) => seeds.clone(),
            None => self.east_srcs.iter().flatten().copied().collect(),
        };
        if self.all_state {
            seeds.extend((0..self.net.ffs.len() as u32).map(Src::Ff));
        }
        seeds
    }

    /// Rebuild the output-port vector under the current (possibly
    /// corrupted) configuration, the way the compiler binds ports.
    /// `reread` re-decodes that one entry from configuration memory;
    /// `retrace` re-traces those entries' wires. Everything else comes
    /// from the golden cache. Returns `None` when identical to golden,
    /// else a `DeltaOp::Outputs` carrying both the port vector and the
    /// full enabled-entry source list (the lane's reachability seeds).
    fn recompute_outputs(
        &self,
        dev: &Device,
        reread: Option<(u16, u8)>,
        retrace: &[(u16, u8)],
    ) -> Result<Option<DeltaOp>, Incompat> {
        let mut ports = Vec::new();
        for (idx, &golden) in self.east_entries.iter().enumerate() {
            let (row, wire) = ((idx / WIRES_PER_DIR) as u16, (idx % WIRES_PER_DIR) as u8);
            let e = if reread == Some((row, wire)) {
                dev.config.read_iob(Edge::East, row as usize, wire as usize)
            } else {
                golden
            };
            if e.enabled {
                let src = match self.east_srcs[idx] {
                    Some(src) if !retrace.contains(&(row, wire)) => src,
                    _ => tracer(dev, &self.net).root_src(Root::OutEntry { row, wire })?,
                };
                ports.push((e, src));
            }
        }
        let outs = port_vector(&ports);
        Ok((outs != self.net.outputs).then(|| DeltaOp::Outputs {
            outs,
            seeds: ports.iter().map(|&(_, s)| s).collect(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{
        encode_wire, input_mux_offset, lut_table_offset, out_sel_offset, outmux_offset, pip_offset,
        MuxPin,
    };
    use crate::frames::{ConfigMemory, IOB_ENTRY_BITS};
    use crate::geometry::{Dir, Geometry, Tile};

    /// A LUT on input port 0, routed east along row 0 to output port 0,
    /// with east entries enabled and disabled around it.
    fn east_entry_design() -> Device {
        let geom = Geometry::tiny();
        let mut cm = ConfigMemory::new(geom.clone());
        let entry = |enabled, port, invert| IobEntry {
            enabled,
            port,
            invert,
        };
        cm.write_iob(Edge::West, 0, 0, entry(true, 0, false));
        let t0 = Tile::new(0, 0);
        cm.write_tile_field(t0, lut_table_offset(0, 0, 0), 16, 0x5555);
        let pin0 = input_mux_offset(0, MuxPin::LutPin { lut: 0, pin: 0 });
        cm.write_tile_field(t0, pin0, 8, encode_wire(Dir::West, 0) as u64);
        cm.write_tile_field(t0, out_sel_offset(0, 0), 1, 0);
        cm.write_tile_field(t0, outmux_offset(Dir::East, 0), 4, 0b0001);
        for col in 1..geom.cols {
            let pip = 1 | ((encode_wire(Dir::West, 0) as u64) << 1);
            cm.write_tile_field(
                Tile::new(0, col),
                pip_offset(Dir::East as usize * 24),
                8,
                pip,
            );
        }
        // Enabled: the routed wire, and an undriven one. Disabled: one
        // whose enable would bind the routed wire's neighbour to port 1,
        // one inverted, and every blank entry.
        cm.write_iob(Edge::East, 0, 0, entry(true, 0, false));
        cm.write_iob(Edge::East, 5, 3, entry(true, 2, true));
        cm.write_iob(Edge::East, 0, 1, entry(false, 1, false));
        cm.write_iob(Edge::East, 2, 0, entry(false, 7, true));
        let mut dev = Device::new(geom);
        dev.configure_full(&cm);
        dev
    }

    #[test]
    fn east_entries_left_disabled_classify_as_the_port_vector_says() {
        let mut dev = east_entry_design();
        let map = DeltaMap::build(&mut dev);
        let (mut enabled, mut disabled, mut lanes) = (0, 0, 0);
        for row in 0..dev.geom.rows {
            for wire in 0..WIRES_PER_DIR {
                let e = dev.config.read_iob(Edge::East, row, wire);
                if e.enabled {
                    enabled += 1;
                } else {
                    disabled += 1;
                }
                for bit in 0..IOB_ENTRY_BITS {
                    let global = dev.config.iob_bit_index(Edge::East, row, wire, bit);
                    let class = map.classify(&mut dev, global);
                    let entry = (row as u16, wire as u8);
                    assert_eq!(
                        class,
                        map.admit(Delta::Edit(map.east_entry_edit(&mut dev, global, entry))),
                        "east entry {entry:?} bit {bit}"
                    );
                    lanes += matches!(class, DeltaClass::Lane(_)) as usize;
                }
                assert_eq!(dev.config.read_iob(Edge::East, row, wire), e);
            }
        }
        assert_eq!(enabled, 2);
        assert_eq!(disabled, dev.geom.rows * WIRES_PER_DIR - 2);
        // Each enable flip changes the port vector, as do most bits of
        // the enabled entries.
        assert!(lanes > dev.geom.rows * WIRES_PER_DIR, "{lanes} lanes");
    }

    /// On every lane that settles by repeated sweeps, the cycle check
    /// through the operand index agrees with the root-by-root one it
    /// replaced, on the hand-built designs and on seeded random ones.
    #[test]
    fn resweep_cycle_checks_match_the_root_by_root_walk() {
        let (mut resweeps, mut cyclic) = (0, 0);
        for (name, mut dev) in crate::fixtures::acyclic_designs(12) {
            let map = DeltaMap::build(&mut dev);
            let mut probe = dev.clone();
            for bit in probe.active_config_bits() {
                let Delta::Edit(Ok(ops)) = map.delta(&mut probe, bit) else {
                    continue;
                };
                if ops.is_empty() || !map.placement(&ops).1 {
                    continue;
                }
                let indexed = map.closes_cycle(&ops);
                assert_eq!(indexed, map.closes_cycle_by_root(&ops), "{name}: bit {bit}");
                resweeps += 1;
                cyclic += usize::from(indexed);
            }
        }
        assert!(resweeps > 500, "{resweeps} resweep lanes checked");
        assert!(cyclic > 50, "{cyclic} of them cyclic");
    }
}
