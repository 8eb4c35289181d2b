//! Fault-injection campaigns (paper Fig. 8 and Tables I–II).
//!
//! The loop per configuration bit, exactly as the paper's Fig. 8:
//! corrupt the bit → partially reconfigure the DUT → run the clock while
//! the comparator checks for output discrepancies → log → repair the bit
//! → (optionally, keep running without reset to classify *persistence*,
//! per \[12\]) → reset and move to the next bit.
//!
//! Campaigns over millions of independent single-bit experiments are
//! embarrassingly parallel; with `parallel = true` the sweep fans out over
//! a rayon pool, one cloned DUT per experiment.

use std::time::Instant;

use cibola_arch::{DeltaClass, DeltaMap, Device, LaneUpset, SimDuration, WideEngine};
use cibola_telemetry::{Severity, Subsystem, Telemetry, TelemetryEvent, THROUGHPUT_BUCKETS};
use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, SeedableRng};
use rayon::prelude::*;

use crate::testbed::{InjectTiming, Testbed};

/// Which configuration bits to inject.
#[derive(Debug, Clone, PartialEq)]
pub enum BitSelection {
    /// Every bit of the bitstream, one experiment each (the paper's
    /// exhaustive mode).
    All,
    /// Simulate only the active closure; bits outside it are provably
    /// inert and counted as tested-benign. Exact same result as `All`,
    /// orders of magnitude faster.
    ActiveClosure,
    /// A uniform random sample of `count` bits from the whole bitstream
    /// (sensitivity becomes an estimate).
    Sample { count: usize, seed: u64 },
    /// Sample `fraction` of the active closure (inert bits still counted
    /// benign): an unbiased, cheap estimator of the exhaustive result.
    SampleClosure { fraction: f64, seed: u64 },
    /// An explicit list.
    List(Vec<usize>),
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Cycles the comparator watches after corruption.
    pub observe_cycles: usize,
    /// Extra cycles run *after repair, without reset* for persistence
    /// classification.
    pub persist_cycles: usize,
    /// The error is non-persistent if the last `persist_tail` cycles of
    /// the persistence window are all clean.
    pub persist_tail: usize,
    /// Classify persistence of each sensitive bit (Table II).
    pub classify_persistence: bool,
    pub selection: BitSelection,
    pub timing: InjectTiming,
    /// Fan out over rayon.
    pub parallel: bool,
    /// Campaign-progress sink (summary events are keyed on *simulated*
    /// testbed time; host-derived throughput goes to metrics only).
    /// Disabled by default.
    pub telemetry: Telemetry,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            observe_cycles: 64,
            persist_cycles: 64,
            persist_tail: 16,
            classify_persistence: true,
            selection: BitSelection::ActiveClosure,
            timing: InjectTiming::default(),
            parallel: true,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// One sensitive configuration bit.
#[derive(Debug, Clone)]
pub struct SensitiveBit {
    /// Global configuration-bit index.
    pub bit: usize,
    /// First cycle at which the outputs diverged.
    pub first_error_cycle: u32,
    /// Which output ports ever differed (correlation data for selective
    /// TMR, §III-A).
    pub output_mask: u128,
    /// True if errors continued to the end of the persistence window after
    /// the bit was repaired (repair alone is not enough; a reset is
    /// required).
    pub persistent: bool,
}

/// Aggregate result of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// For sampled-closure campaigns: the closure size the sample was
    /// drawn from (0 otherwise).
    pub closure_size: usize,
    pub design: String,
    /// Device configuration size (denominator of Table I's sensitivity).
    pub total_bits: usize,
    /// Experiments actually simulated.
    pub injections: usize,
    /// Bits proven inert without simulation.
    pub inert_bits: usize,
    /// Occupied-slice fraction of the design (for normalized sensitivity).
    pub slice_fraction: f64,
    pub sensitive: Vec<SensitiveBit>,
    /// Whether `sensitive` covers the full bitstream (exhaustive modes) or
    /// is a sample estimate.
    pub exhaustive: bool,
    /// Simulated testbed time (the paper's 214 µs/bit model).
    pub sim_time: SimDuration,
    /// Host wall-clock seconds.
    pub host_seconds: f64,
}

impl CampaignResult {
    /// Number of design failures observed (Table I, "Failures"). For
    /// sampled campaigns this is extrapolated to the full bitstream.
    pub fn failures(&self) -> usize {
        if self.exhaustive {
            self.sensitive.len()
        } else {
            (self.sensitivity() * self.total_bits as f64).round() as usize
        }
    }

    /// Design sensitivity: failures per configuration upset (Table I).
    pub fn sensitivity(&self) -> f64 {
        if self.exhaustive {
            self.sensitive.len() as f64 / self.total_bits as f64
        } else if self.closure_size > 0 {
            // Sampled within the closure; everything outside is benign.
            let hit_rate = self.sensitive.len() as f64 / self.injections.max(1) as f64;
            hit_rate * self.closure_size as f64 / self.total_bits as f64
        } else {
            // Sampled uniformly from the full bitstream.
            self.sensitive.len() as f64 / self.injections.max(1) as f64
        }
    }

    /// Sensitivity normalized by the occupied-slice fraction (Table I's
    /// final column): similar designs of different sizes should land on
    /// similar values.
    pub fn normalized_sensitivity(&self) -> f64 {
        if self.slice_fraction > 0.0 {
            self.sensitivity() / self.slice_fraction
        } else {
            0.0
        }
    }

    /// Persistent sensitive bits per sensitive bit (Table II).
    pub fn persistence_ratio(&self) -> f64 {
        if self.sensitive.is_empty() {
            0.0
        } else {
            self.sensitive.iter().filter(|s| s.persistent).count() as f64
                / self.sensitive.len() as f64
        }
    }

    /// Persistent bit indices.
    pub fn persistent_bits(&self) -> Vec<usize> {
        self.sensitive
            .iter()
            .filter(|s| s.persistent)
            .map(|s| s.bit)
            .collect()
    }

    /// Sensitive bit indices as a set (for beam validation).
    pub fn sensitive_set(&self) -> std::collections::HashSet<usize> {
        self.sensitive.iter().map(|s| s.bit).collect()
    }

    /// Everything an experimenter can observe from a campaign, as a
    /// comparable key: the classification of every sensitive bit plus the
    /// bookkeeping the sensitivity arithmetic reads. Two engines whose
    /// keys are equal are indistinguishable — the contract the
    /// scalar/wide differential tests and the conformance corpus assert.
    #[allow(clippy::type_complexity)]
    pub fn equivalence_key(&self) -> (Vec<(usize, u32, u128, bool)>, [usize; 5], bool, u64) {
        (
            self.sensitive
                .iter()
                .map(|s| (s.bit, s.first_error_cycle, s.output_mask, s.persistent))
                .collect(),
            [
                self.injections,
                self.inert_bits,
                self.closure_size,
                self.total_bits,
                self.sensitive.len(),
            ],
            self.exhaustive,
            self.sim_time.as_nanos(),
        )
    }
}

/// Run one single-bit experiment on a fresh DUT; `Some` iff the bit is
/// sensitive.
pub fn inject_one(tb: &Testbed, cfg: &CampaignConfig, bit: usize) -> Option<SensitiveBit> {
    let mut dut = tb.base.clone();
    inject_one_with(&mut dut, tb, cfg, bit)
}

/// Run one single-bit experiment, reusing `dut` as scratch. On return the
/// DUT has been restored (repair + reset, or a full state restore for
/// designs with run-time-written configuration).
pub fn inject_one_with(
    dut: &mut Device,
    tb: &Testbed,
    cfg: &CampaignConfig,
    bit: usize,
) -> Option<SensitiveBit> {
    // Corrupt: the simulator "partially reconfigures the DUT to load the
    // corrupted frame".
    dut.flip_config_bit(bit);

    let observe = cfg.observe_cycles.min(tb.trace_len());
    let persist_end = (cfg.observe_cycles + cfg.persist_cycles).min(tb.trace_len());

    // One output buffer for the whole experiment: the observe and
    // persistence windows run allocation-free, comparing against the
    // golden trace in place.
    let mut out: Vec<bool> = Vec::with_capacity(dut.num_outputs());

    let mut first_error: Option<u32> = None;
    let mut mask = 0u128;
    for c in 0..observe {
        dut.step_into(&tb.stimulus[c], &mut out);
        let gold = &tb.golden[c];
        if out[..] != gold[..] {
            first_error.get_or_insert(c as u32);
            for (i, (a, b)) in out.iter().zip(gold.iter()).enumerate() {
                if a != b && i < 128 {
                    mask |= 1 << i;
                }
            }
        }
    }

    // Repair the bit ("the simulator corrects the current bit").
    dut.flip_config_bit(bit);

    let result = if let Some(first_error_cycle) = first_error {
        // Persistence pass: continue without reset; if the tail of the
        // window is clean, scrubbing alone healed the design
        // (non-persistent).
        let mut persistent = false;
        if cfg.classify_persistence && persist_end > observe {
            let mut last_mismatch: Option<usize> = None;
            for c in observe..persist_end {
                dut.step_into(&tb.stimulus[c], &mut out);
                if out[..] != tb.golden[c][..] {
                    last_mismatch = Some(c);
                }
            }
            persistent = match last_mismatch {
                None => false,
                Some(l) => l + cfg.persist_tail >= persist_end,
            };
        }
        Some(SensitiveBit {
            bit,
            first_error_cycle,
            output_mask: mask,
            persistent,
        })
    } else {
        None
    };

    // Restore for the next experiment ("reset designs", Fig. 8). Designs
    // that write their own configuration (LUT-RAM/SRL/BRAM) need their
    // whole image restored — and so do experiments where the *corruption*
    // accidentally created a dynamic resource that wrote the image.
    if tb.has_dynamic_state || dut.design_wrote_config() {
        *dut = tb.base.clone();
    } else {
        dut.reset();
    }
    result
}

/// Resolve `cfg.selection` into the concrete experiment list:
/// `(bits to simulate, bits proven inert, exhaustive?, closure size)`.
fn select_bits(tb: &Testbed, cfg: &CampaignConfig) -> (Vec<usize>, usize, bool, usize) {
    let total_bits = tb.total_bits();
    let mut closure_size = 0usize;
    let (bits, inert_bits, exhaustive): (Vec<usize>, usize, bool) = match &cfg.selection {
        BitSelection::All => ((0..total_bits).collect(), 0, true),
        BitSelection::ActiveClosure => {
            let mut probe = tb.base.clone();
            let active = probe.active_config_bits();
            let inert = total_bits - active.len();
            (active, inert, true)
        }
        BitSelection::Sample { count, seed } => {
            let mut rng = SmallRng::seed_from_u64(*seed);
            let mut all: Vec<usize> = (0..total_bits).collect();
            all.shuffle(&mut rng);
            all.truncate(*count);
            (all, 0, false)
        }
        BitSelection::SampleClosure { fraction, seed } => {
            let mut probe = tb.base.clone();
            let mut active = probe.active_config_bits();
            closure_size = active.len();
            let inert = total_bits - active.len();
            let mut rng = SmallRng::seed_from_u64(*seed);
            active.shuffle(&mut rng);
            let keep = ((active.len() as f64) * fraction.clamp(0.0, 1.0)).ceil() as usize;
            active.truncate(keep.max(1));
            (active, inert, false)
        }
        BitSelection::List(v) => (v.clone(), 0, false),
    };
    (bits, inert_bits, exhaustive, closure_size)
}

/// Simulated campaign time for `tested` Fig. 8 loops of which
/// `sensitive` needed a persistence pass — the paper's 214 µs/bit model.
/// Inert bits were still "tested" on the real testbed, so they count too;
/// this is what reproduces the paper's 20-minute exhaustive figure.
fn campaign_sim_time(cfg: &CampaignConfig, tested: usize, sensitive: usize) -> SimDuration {
    let mut sim_time = cfg.timing.per_bit() * tested as u64
        + cfg.timing.cycles(cfg.observe_cycles) * tested as u64;
    if cfg.classify_persistence {
        sim_time += cfg.timing.cycles(cfg.persist_cycles) * sensitive as u64;
    }
    sim_time
}

/// Campaign summary instrumentation. The span is keyed on the *simulated*
/// testbed time the campaign represents; host-derived throughput goes
/// only to the metrics registry, never the deterministic event stream.
fn emit_campaign_summary(
    cfg: &CampaignConfig,
    injections: usize,
    inert_bits: usize,
    sensitive: usize,
    sim_ns: u64,
    host_seconds: f64,
) {
    if !cfg.telemetry.is_enabled() {
        return;
    }
    cfg.telemetry.inc("inject.injections", injections as u64);
    cfg.telemetry.inc("inject.inert_bits", inert_bits as u64);
    cfg.telemetry.inc("inject.sensitive", sensitive as u64);
    if host_seconds > 0.0 {
        cfg.telemetry.observe(
            "inject.classify_bits_per_sec",
            THROUGHPUT_BUCKETS,
            injections as f64 / host_seconds,
        );
    }
    cfg.telemetry.emit(
        TelemetryEvent::span(Subsystem::Inject, "inject.campaign", 0, sim_ns)
            .with_severity(Severity::Info)
            .with_u64("injections", injections as u64)
            .with_u64("inert", inert_bits as u64)
            .with_u64("sensitive", sensitive as u64),
    );
}

/// Run one scalar experiment per bit of `bits`; the sensitive ones, in
/// no particular order.
fn run_scalar(tb: &Testbed, cfg: &CampaignConfig, bits: &[usize]) -> Vec<SensitiveBit> {
    if cfg.parallel {
        // One scratch DUT per rayon task: cloned at split points, reused
        // across the items of each task.
        bits.par_iter()
            .map_with(tb.base.clone(), |dut, &b| inject_one_with(dut, tb, cfg, b))
            .flatten()
            .collect()
    } else {
        let mut dut = tb.base.clone();
        bits.iter()
            .filter_map(|&b| inject_one_with(&mut dut, tb, cfg, b))
            .collect()
    }
}

/// Run a full campaign.
pub fn run_campaign(tb: &Testbed, cfg: &CampaignConfig) -> CampaignResult {
    let total_bits = tb.total_bits();
    let (bits, inert_bits, exhaustive, closure_size) = select_bits(tb, cfg);

    let start = Instant::now();
    let mut sensitive = run_scalar(tb, cfg, &bits);
    let host_seconds = start.elapsed().as_secs_f64();
    sensitive.sort_by_key(|s| s.bit);

    let sim_time = campaign_sim_time(cfg, bits.len() + inert_bits, sensitive.len());
    emit_campaign_summary(
        cfg,
        bits.len(),
        inert_bits,
        sensitive.len(),
        sim_time.as_nanos(),
        host_seconds,
    );

    CampaignResult {
        design: tb.report.name.clone(),
        closure_size,
        total_bits,
        injections: bits.len(),
        inert_bits,
        slice_fraction: tb.report.slice_fraction(),
        sensitive,
        exhaustive,
        sim_time,
        host_seconds,
    }
}

// ---------------------------------------------------------------------------
// Word-parallel campaign (PPSFP): 63 experiments per simulation pass.
// ---------------------------------------------------------------------------

#[inline]
fn splat64(b: bool) -> u64 {
    if b {
        !0
    } else {
        0
    }
}

/// Run one batch of lane-expressible experiments through the wide engine.
/// `chunk` pairs each global bit index with its lane upset (state overlay
/// or reroute); lane `i + 1` carries `chunk[i]` and lane 0 stays golden.
/// Semantics mirror [`observe_and_classify`] exactly: observe window,
/// repair (overlay removed / reroute dropped, dynamic state kept),
/// persistence tail classification. Reroute lanes whose output vector
/// changed shape diverge every observe cycle and compare only the ports
/// they still drive, matching the scalar comparator's zip.
fn run_wide_batch(
    w: &mut WideEngine,
    out: &mut Vec<u64>,
    tb: &Testbed,
    cfg: &CampaignConfig,
    chunk: &[(usize, LaneUpset)],
) -> Vec<SensitiveBit> {
    use cibola_arch::LANES;

    let observe = cfg.observe_cycles.min(tb.trace_len());
    let persist_end = (cfg.observe_cycles + cfg.persist_cycles).min(tb.trace_len());

    let upsets: Vec<LaneUpset> = chunk.iter().map(|(_, u)| u.clone()).collect();
    w.load_batch_upsets(&upsets);
    let len_diff = w.len_diff_mask();
    let valid: Vec<u64> = w.out_valid_masks().to_vec();

    let mut seen = 0u64;
    let mut first = [0u32; LANES];
    let mut mask = [0u128; LANES];
    for c in 0..observe {
        w.step(&tb.stimulus[c], out);
        let gold = &tb.golden[c];
        let mut diff = len_diff;
        for (o, &word) in out.iter().enumerate() {
            let d = (word ^ splat64(gold[o])) & valid[o];
            if d != 0 {
                diff |= d;
                if o < 128 {
                    let mut rem = d;
                    while rem != 0 {
                        let lane = rem.trailing_zeros() as usize;
                        rem &= rem - 1;
                        mask[lane] |= 1 << o;
                    }
                }
            }
        }
        debug_assert_eq!(diff & 1, 0, "golden lane diverged from golden trace");
        let mut fresh = diff & !seen;
        while fresh != 0 {
            let lane = fresh.trailing_zeros() as usize;
            fresh &= fresh - 1;
            first[lane] = c as u32;
        }
        seen |= diff;
    }

    // Repair every lane; dynamic state carries into the persistence pass.
    w.repair();

    let mut last = [usize::MAX; LANES];
    if cfg.classify_persistence && persist_end > observe && seen != 0 {
        for c in observe..persist_end {
            w.step(&tb.stimulus[c], out);
            let mut diff = 0u64;
            for (o, &word) in out.iter().enumerate() {
                diff |= word ^ splat64(tb.golden[c][o]);
            }
            debug_assert_eq!(diff & 1, 0, "golden lane diverged post-repair");
            let mut rem = diff & seen;
            while rem != 0 {
                let lane = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                last[lane] = c;
            }
        }
    }

    let mut results = Vec::new();
    let mut rem = seen & !1;
    while rem != 0 {
        let lane = rem.trailing_zeros() as usize;
        rem &= rem - 1;
        let persistent = last[lane] != usize::MAX && last[lane] + cfg.persist_tail >= persist_end;
        results.push(SensitiveBit {
            bit: chunk[lane - 1].0,
            first_error_cycle: first[lane],
            output_mask: mask[lane],
            persistent,
        });
    }
    results
}

/// Run a full campaign on the word-parallel engine: identical results to
/// [`run_campaign`], an order of magnitude faster.
///
/// Bits are triaged by [`DeltaMap::classify`], which re-traces only the
/// network roots that actually read the flipped bit (recorded once per
/// campaign) instead of recompiling:
///
/// * **Lane-expressible** — state bits of compiled elements (LUT tables,
///   FF inits, BRAM content) as lane-masked XOR overlays, plus routing /
///   mux / IOB upsets as lane-masked source overrides on the map's
///   augmented network, which also holds every out-of-cone node such a
///   reroute can reach. Simulated 63 per pass.
/// * **Provably benign** — bits the golden compile never reads (the
///   corrupted compile then can't either), or whose re-derived network is
///   identical. Counted, not simulated.
/// * **Structural** — LUT re-modes and reroutes whose corrupted network
///   has a combinational cycle. Run on the scalar path, flipped and
///   recompiled, one experiment each.
///
/// Falls back to [`run_campaign`] wholesale when the design is outside
/// the wide engine's domain (combinational cycles, locked BRAM,
/// unprogrammed device).
pub fn run_campaign_wide(tb: &Testbed, cfg: &CampaignConfig) -> CampaignResult {
    let total_bits = tb.total_bits();
    let (bits, inert_bits, exhaustive, closure_size) = select_bits(tb, cfg);
    let mut probe = tb.base.clone();
    let delta = DeltaMap::build_for(&mut probe, &bits);
    let Some(wide) = WideEngine::with_map(&mut probe, &delta) else {
        return run_campaign(tb, cfg);
    };

    let start = Instant::now();

    // Triage pass. Serial it was the campaign's Amdahl bottleneck: every
    // bit funnelled through one probe device before any parallel work
    // started. Each worker gets its own clone of the already-compiled
    // probe; `with_min_len` keeps tiny campaigns from paying a clone per
    // core for a handful of bits. Worker results come back in input
    // order, so the partition below is identical to the serial one.
    let classes: Vec<DeltaClass> = if cfg.parallel {
        bits.par_iter()
            .with_min_len(512)
            .map_with(probe.clone(), |p, &b| delta.classify(p, b))
            .collect()
    } else {
        bits.iter()
            .map(|&b| delta.classify(&mut probe, b))
            .collect()
    };
    // Lanes that reach past the golden cone or settle by repeated sweeps
    // batch apart, so every other batch keeps the golden network's single
    // sweep; lanes are independent, so the grouping cannot change a
    // verdict.
    let mut lane_bits: Vec<(usize, LaneUpset)> = Vec::new();
    let mut augmented: Vec<(usize, LaneUpset)> = Vec::new();
    let mut structural: Vec<usize> = Vec::new();
    for (&b, class) in bits.iter().zip(classes) {
        match class {
            DeltaClass::Lane(u) if u.is_augmented() => augmented.push((b, u)),
            DeltaClass::Lane(u) => lane_bits.push((b, u)),
            DeltaClass::Benign => {}
            DeltaClass::Structural => structural.push(b),
        }
    }
    let lanes = lane_bits.len() + augmented.len();
    if cfg.telemetry.is_enabled() {
        let benign = bits.len() - lanes - structural.len();
        cfg.telemetry.inc("inject.lane_bits", lanes as u64);
        cfg.telemetry
            .inc("inject.structural_bits", structural.len() as u64);
        cfg.telemetry.inc("inject.benign_bits", benign as u64);
    }

    let mut sensitive = run_scalar(tb, cfg, &structural);

    // Lane pass: 63 experiments per batch. A full `WideEngine` clone is
    // the per-worker cost, so guarantee each worker several batches to
    // amortise it — small designs produce only a handful of batches, and
    // one engine clone per batch-sized split is where the old near-flat
    // parallel scaling went.
    let cap = wide.batch_capacity();
    let batches: Vec<&[(usize, LaneUpset)]> =
        lane_bits.chunks(cap).chain(augmented.chunks(cap)).collect();
    if cfg.telemetry.is_enabled() && !batches.is_empty() {
        // Fraction of wide-engine lane slots carrying a live experiment:
        // < 1.0 only on the final ragged batch of each group.
        let slots = (batches.len() * cap) as f64;
        cfg.telemetry
            .gauge("inject.lane_utilization", lanes as f64 / slots);
    }
    let lane_sensitive: Vec<SensitiveBit> = if cfg.parallel {
        batches
            .par_iter()
            .with_min_len(4)
            .map_with((wide.clone(), Vec::new()), |(w, out), chunk| {
                run_wide_batch(w, out, tb, cfg, chunk)
            })
            .flatten()
            .collect()
    } else {
        let mut w = wide.clone();
        let mut out = Vec::new();
        batches
            .iter()
            .flat_map(|chunk| run_wide_batch(&mut w, &mut out, tb, cfg, chunk))
            .collect()
    };
    let host_seconds = start.elapsed().as_secs_f64();

    sensitive.extend(lane_sensitive);
    sensitive.sort_by_key(|s| s.bit);

    let sim_time = campaign_sim_time(cfg, bits.len() + inert_bits, sensitive.len());
    emit_campaign_summary(
        cfg,
        bits.len(),
        inert_bits,
        sensitive.len(),
        sim_time.as_nanos(),
        host_seconds,
    );

    CampaignResult {
        design: tb.report.name.clone(),
        closure_size,
        total_bits,
        injections: bits.len(),
        inert_bits,
        slice_fraction: tb.report.slice_fraction(),
        sensitive,
        exhaustive,
        sim_time,
        host_seconds,
    }
}
