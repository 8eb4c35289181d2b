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
//!   a static LUT; otherwise structural, since it re-modes the evaluator
//!   and decides whether the LUT's write roots are traced at all;
//! * a flip-flop's init: a lane overlay on a golden flip-flop, else
//!   benign;
//! * an east IOB entry, which binds an output port: the port vector is
//!   rebuilt with that one entry re-read.
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
//! * **Structural** — the flip re-modes a LUT (the evaluator changes), or
//!   the lane's corrupted network has a combinational cycle (the scalar
//!   engine's relaxation of a cycle is warm-start history dependent). Only
//!   these pay the scalar recompile path.
//!
//! A re-trace may reach a LUT, flip-flop or BRAM outside the golden cone.
//! [`DeltaMap::build`] finds every such site up front: it flips each
//! golden-read bit once, re-traces its readers, and compiles the golden
//! configuration again with the sites reached as extra roots, repeating
//! until no new site appears. Ops resolve against this *augmented*
//! network. Its golden nodes keep their ids as a prefix; the out-of-cone
//! nodes after them hold golden-configuration state that only a lane
//! reaching them ever clocks. Their own state bits stay benign, since the
//! golden compile never reads them.
//!
//! Soundness leans on two facts. First, the augmented network holds every
//! node a single-bit corrupted compile of a golden-read bit can contain,
//! so its node arrays host every lane's variant. Second, every admitted
//! lane is acyclic. Either its new LUT edges all run forward in the
//! augmented settle order over an acyclic fan-in, so one sweep settles
//! it; or an explicit check over the lane's reachable network finds no
//! cycle, and the lane is marked to settle by repeated sweeps. That is
//! exact, because an acyclic network has one combinational solution.

use crate::bits::BitRole;
use crate::compile::{
    compile_with, port_vector, CBram, CFf, CLut, Compiled, Incompat, NodeCounts, NodeSet, Root,
    Site, Src, Tracer,
};
use crate::device::Device;
use crate::engine_wide::WideTarget;
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
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum UpsetKind {
    /// A state overlay: XOR one lane bit of packed table/init/content.
    State(WideTarget),
    /// A network edit: lane-masked source overrides. `outside`: some op
    /// reads a node outside the golden cone. `resweep`: the lane is
    /// acyclic but not in settle order, so its batch settles by repeated
    /// sweeps. (A boxed slice keeps a campaign's tens of thousands of
    /// lanes free of `Vec` capacity slack.)
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
    /// Needs the scalar recompile path: a LUT re-mode or a corrupted
    /// network with a combinational cycle.
    Structural,
}

/// Call `f(root, source)` for every root of `node` (a LUT, FF or BRAM
/// source; anything else has none), with the network's own source.
fn for_each_root(net: &Compiled, node: Src, mut f: impl FnMut(Root, Src)) {
    match node {
        Src::Lut(lut) => {
            let l = &net.luts[lut as usize];
            for (pin, &s) in l.pins.iter().enumerate() {
                f(
                    Root::LutPin {
                        lut,
                        pin: pin as u8,
                    },
                    s,
                );
            }
            if l.mode.is_dynamic() {
                f(Root::LutData { lut }, l.data);
                f(Root::LutWe { lut }, l.we);
            }
        }
        Src::Ff(ff) => {
            let x = &net.ffs[ff as usize];
            f(Root::FfD { ff }, x.d);
            f(Root::FfCe { ff }, x.ce);
            f(Root::FfSr { ff }, x.sr);
        }
        Src::Bram { id: bram, .. } => {
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
        _ => {}
    }
}

/// Per node, the lanes whose network holds it.
pub(crate) struct Reach {
    pub luts: Vec<u64>,
    pub ffs: Vec<u64>,
    pub brams: Vec<u64>,
}

impl Reach {
    /// Add lanes `m` to node `s`; true if that grew its mask.
    fn grow(&mut self, s: Src, m: u64) -> bool {
        let mask = match s {
            Src::Lut(i) => &mut self.luts[i as usize],
            Src::Ff(i) => &mut self.ffs[i as usize],
            Src::Bram { id, .. } => &mut self.brams[id as usize],
            _ => return false,
        };
        let grew = m & !*mask != 0;
        *mask |= m;
        grew
    }
}

/// Which lanes' networks hold each node of `net`. Lane bits enter at
/// `seeds` and flow from every held node to the sources its roots read,
/// where `ovs(root)` rebinds the root for the lanes in each mask. The
/// least fixpoint is, lane by lane, exactly the node set a scalar compile
/// of that lane's network holds — found for all lanes in one pass.
pub(crate) fn reach<I: IntoIterator<Item = (u64, Src)>>(
    net: &Compiled,
    seeds: &[(Src, u64)],
    ovs: impl Fn(Root) -> I,
) -> Reach {
    let mut r = Reach {
        luts: vec![0; net.luts.len()],
        ffs: vec![0; net.ffs.len()],
        brams: vec![0; net.brams.len()],
    };
    let mut work: Vec<Src> = seeds
        .iter()
        .filter(|&&(s, m)| r.grow(s, m))
        .map(|&(s, _)| s)
        .collect();
    while let Some(s) = work.pop() {
        let m = match s {
            Src::Lut(i) => r.luts[i as usize],
            Src::Ff(i) => r.ffs[i as usize],
            Src::Bram { id, .. } => r.brams[id as usize],
            _ => continue,
        };
        for_each_root(net, s, |root, base| {
            let mut through = m;
            for (lanes, src) in ovs(root) {
                if r.grow(src, m & lanes) {
                    work.push(src);
                }
                through &= !lanes;
            }
            if r.grow(base, through) {
                work.push(base);
            }
        });
    }
    r
}

/// True if the LUTs with a bit in `held` form a combinational cycle when
/// each root reads `src_of(root, network source)`: the scalar compile of
/// that network would relax it iteratively.
fn has_cycle(net: &Compiled, held: &[u64], src_of: impl Fn(Root, Src) -> Src) -> bool {
    let n = net.luts.len();
    let mut indeg = vec![0u32; n];
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in (0..n).filter(|&i| held[i] != 0) {
        for_each_root(net, Src::Lut(i as u32), |root, base| {
            if let Src::Lut(j) = src_of(root, base) {
                readers[j as usize].push(i as u32);
                indeg[i] += 1;
            }
        });
    }
    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&i| held[i as usize] != 0 && indeg[i as usize] == 0)
        .collect();
    let mut left = held.iter().filter(|&&m| m != 0).count();
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

/// Every root of the nodes with ids from `from` up to `to`.
fn roots_between(net: &Compiled, from: NodeCounts, to: NodeCounts) -> Vec<Root> {
    let mut roots = Vec::new();
    let nodes = (from.luts..to.luts)
        .map(|i| Src::Lut(i as u32))
        .chain((from.ffs..to.ffs).map(|i| Src::Ff(i as u32)))
        .chain((from.brams..to.brams).map(|i| Src::Bram {
            id: i as u32,
            bit: 0,
        }));
    for node in nodes {
        for_each_root(net, node, |root, _| roots.push(root));
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
            deps: Vec::new(),
            ext_deps: Vec::new(),
            east_entries: Vec::new(),
            east_srcs: Vec::new(),
            all_state: dev.compile_all_state,
            golden,
            net,
        };

        let rows = dev.geom.rows;
        let mut roots = roots_between(&map.net, NodeCounts::default(), golden);
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
            let roots = roots_between(&self.net, from, NodeCounts::of(&self.net));
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
        let overlay = |t| DeltaClass::Lane(LaneUpset::state(t));
        match dev.config.describe(global) {
            BitLocus::Clb { tile, role } => match role {
                BitRole::LutTable { slice, lut, bit } => self
                    .golden_node(dev, Site::Lut { tile, slice, lut })
                    .map_or(DeltaClass::Benign, |id| {
                        overlay(WideTarget::LutTable { lut: id, bit })
                    }),
                BitRole::FfInit { slice, ff } => self
                    .golden_node(dev, Site::Ff { tile, slice, ff })
                    .map_or(DeltaClass::Benign, |id| {
                        overlay(WideTarget::FfInit { ff: id })
                    }),
                BitRole::SliceReserved { .. } | BitRole::Pad => DeltaClass::Benign,
                BitRole::LutModeBit { slice, lut, bit } => {
                    match self.golden_node(dev, Site::Lut { tile, slice, lut }) {
                        None => DeltaClass::Benign,
                        // Bit 0 toggles Logic↔ROM (behaviourally identical
                        // static tables). Anything touching dynamicity
                        // re-modes the evaluator: scalar.
                        Some(id) if bit == 0 && !self.net.luts[id as usize].mode.is_dynamic() => {
                            DeltaClass::Benign
                        }
                        Some(_) => DeltaClass::Structural,
                    }
                }
                _ => self.classify_deps(dev, global),
            },
            BitLocus::BramContent { col, block, bit } => self
                .golden_node(dev, Site::Bram { col, block })
                .map_or(DeltaClass::Benign, |mem| {
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
                ..
            } => {
                dev.config.flip_bit(global);
                let r = self.recompute_outputs(dev, Some((row, wire)), &[]);
                dev.config.flip_bit(global);
                match r {
                    Err(Incompat) => DeltaClass::Structural,
                    Ok(None) => DeltaClass::Benign,
                    Ok(Some(op)) => self.lane(vec![op]),
                }
            }
            _ => self.classify_deps(dev, global),
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

    /// Classify via the recorded read set: no golden reader ⇒ benign;
    /// otherwise flip in place and re-derive exactly the reading roots,
    /// golden and out-of-cone.
    fn classify_deps(&self, dev: &mut Device, global: usize) -> DeltaClass {
        let golden = readers(&self.deps, global);
        if golden.is_empty() {
            return DeltaClass::Benign;
        }
        let roots = golden.iter().chain(readers(&self.ext_deps, global));
        dev.config.flip_bit(global);
        let r = self.delta_ops(dev, roots);
        dev.config.flip_bit(global);
        match r {
            Err(Incompat) => DeltaClass::Structural,
            Ok(ops) if ops.is_empty() => DeltaClass::Benign,
            Ok(ops) => self.lane(ops),
        }
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
        let outside = ops.iter().any(|op| match op {
            DeltaOp::Rebind(_, s) => self.golden.beyond(*s),
            DeltaOp::Outputs { seeds, .. } => seeds.iter().any(|&s| self.golden.beyond(s)),
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
        let resweep = !in_order || (outside && self.net.iterative);
        if resweep {
            let rebinds: Vec<(Root, [(u64, Src); 1])> = ops
                .iter()
                .filter_map(|op| match *op {
                    DeltaOp::Rebind(root, src) => Some((root, [(1, src)])),
                    DeltaOp::Outputs { .. } => None,
                })
                .collect();
            let ovs = |root: Root| {
                rebinds
                    .iter()
                    .find(|(r, _)| *r == root)
                    .map_or(&[][..], |(_, ov)| &ov[..])
            };
            let seeds: Vec<(Src, u64)> =
                self.lane_seeds(&ops).into_iter().map(|s| (s, 1)).collect();
            let held = reach(&self.net, &seeds, |root| ovs(root).iter().copied()).luts;
            let src_of = |root, base| ovs(root).first().map_or(base, |&(_, s)| s);
            if has_cycle(&self.net, &held, src_of) {
                return DeltaClass::Structural;
            }
        }
        DeltaClass::Lane(LaneUpset(UpsetKind::Reroute {
            ops: ops.into_boxed_slice(),
            outside,
            resweep,
        }))
    }

    /// What a lane's corrupted compile roots at: every enabled east
    /// entry's source, plus every flip-flop in diagnostics mode.
    fn lane_seeds(&self, ops: &[DeltaOp]) -> Vec<Src> {
        let mut seeds: Vec<Src> = match ops.iter().find_map(|op| match op {
            DeltaOp::Outputs { seeds, .. } => Some(seeds),
            DeltaOp::Rebind(..) => None,
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
