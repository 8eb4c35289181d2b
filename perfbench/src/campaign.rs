//! The `campaign` workload: exhaustive `ActiveClosure` campaigns with
//! persistence classification, run through `run_campaign_wide`.
//!
//! The traced split re-runs the same campaign layer by layer — closure,
//! `DeltaMap` build and triage on one thread, then the lane pass over the
//! lane-expressible and benign bits and the structural fallback over the
//! rest, each on the untraced run's thread pool — and demands that the
//! two partial sensitive sets together equal the untraced campaign's,
//! entry for entry.

use std::collections::HashSet;

use cibola::designs::PaperDesign;
use cibola::prelude::*;
use cibola_arch::{same_topology, DeltaClass, DeltaMap, WideEngine};
use cibola_inject::SensitiveBit;

use crate::{
    expect_eq, input_seed, splitmix64, timed, Checks, Digest, Layers, SetupSplit, Trace, Work,
    Workload,
};

/// Equivalence-key digests of the default seed's three campaigns
/// (MULT 8, LFSR 2, 16 Counter/Adder on `Geometry::small()`).
pub const PINNED: [u64; 3] = [
    0xf845_3d54_28f2_8019,
    0x06e0_a89e_b0c5_c95c,
    0x85ef_b26c_6ce9_6b65,
];

/// Seed of the closure sample the wide/scalar ratio is measured on.
const RATIO_SAMPLE_SEED: u64 = 0x5A3B_1E00;

#[derive(Debug, Clone)]
pub struct Campaign {
    pub geometry: Geometry,
    pub designs: Vec<PaperDesign>,
    pub stim_seed: u64,
    /// Prepared trace length (observe 64 + persist 64 → 96 keeps a
    /// 32-cycle persistence window, as `bench_inject` always ran).
    pub cycles: usize,
    /// Closure bits re-run on the scalar engine to spot-check each
    /// design's first campaign.
    pub spot_bits: usize,
    /// Closure fraction `inject.wide_over_scalar` is measured on.
    pub ratio_fraction: f64,
    pub pinned: Option<Vec<u64>>,
}

impl Campaign {
    /// The benchmark's workload for `seed`.
    pub fn paper(seed: u64) -> Self {
        Campaign {
            geometry: Geometry::small(),
            designs: vec![
                PaperDesign::Mult { width: 8 },
                PaperDesign::Lfsr { clusters: 2 },
                PaperDesign::CounterAdder { width: 16 },
            ],
            stim_seed: input_seed(seed, 0xC1B07A, 0xCA3B_A160),
            cycles: 96,
            spot_bits: 48,
            ratio_fraction: 0.02,
            pinned: (seed == crate::DEFAULT_SEED).then(|| PINNED.to_vec()),
        }
    }

    pub fn config(&self, selection: BitSelection, parallel: bool) -> CampaignConfig {
        CampaignConfig {
            observe_cycles: 64,
            persist_cycles: 64,
            persist_tail: 16,
            classify_persistence: true,
            selection,
            parallel,
            ..Default::default()
        }
    }
}

/// Every observable detail of one sensitive bit.
type Entry = (usize, u32, u128, bool);

fn entries<'a>(s: impl IntoIterator<Item = &'a SensitiveBit>) -> Vec<Entry> {
    s.into_iter()
        .map(|s| (s.bit, s.first_error_cycle, s.output_mask, s.persistent))
        .collect()
}

/// FNV-1a over a campaign's equivalence key, in the conformance corpus's
/// layout.
pub fn digest(r: &CampaignResult) -> u64 {
    let (sens, counts, exhaustive, sim_ns) = r.equivalence_key();
    let mut h = Digest::new();
    for (bit, cycle, mask, persistent) in &sens {
        h.u64(*bit as u64)
            .u64(*cycle as u64)
            .u128(*mask)
            .u64(*persistent as u64);
    }
    for c in counts {
        h.u64(c as u64);
    }
    h.u64(exhaustive as u64).u64(sim_ns);
    h.finish()
}

/// Re-run a seeded sample of the closure on the scalar engine and
/// compare it with the wide campaign's verdicts on the same bits.
fn spot_check(c: &Campaign, tb: &Testbed, wide: &CampaignResult) -> Result<(), String> {
    let closure = tb.base.clone().active_config_bits();
    expect_eq("closure size", closure.len(), wide.injections)?;
    expect_eq(
        "bit accounting",
        wide.injections + wide.inert_bits,
        wide.total_bits,
    )?;
    let mut sample: Vec<usize> = (0..c.spot_bits as u64)
        .map(|k| closure[(splitmix64(c.stim_seed ^ k) % closure.len() as u64) as usize])
        .collect();
    sample.sort_unstable();
    sample.dedup();
    let picked: HashSet<usize> = sample.iter().copied().collect();
    let scalar = run_campaign(tb, &c.config(BitSelection::List(sample), false));
    expect_eq(
        "scalar spot check",
        entries(&scalar.sensitive),
        entries(wide.sensitive.iter().filter(|s| picked.contains(&s.bit))),
    )
}

impl Workload for Campaign {
    type Setup = Vec<Testbed>;
    type Unit = CampaignResult;

    fn setup(&self, split: &mut SetupSplit) -> Vec<Testbed> {
        self.designs
            .iter()
            .map(|d| {
                let (imp, t) = timed(|| {
                    implement(&d.netlist(), &self.geometry)
                        .unwrap_or_else(|e| panic!("{} does not fit: {e:?}", d.label()))
                });
                split.implement_s += t;
                let (tb, t) = timed(|| Testbed::new(&imp, self.stim_seed, self.cycles));
                split.testbed_s += t;
                tb
            })
            .collect()
    }

    fn units(&self) -> usize {
        self.designs.len()
    }

    fn run_unit(&self, tbs: &Vec<Testbed>, i: usize) -> CampaignResult {
        run_campaign_wide(&tbs[i], &self.config(BitSelection::ActiveClosure, true))
    }

    fn work(&self, r: &CampaignResult) -> Work {
        Work {
            experiments: r.injections as f64,
            sim_hours: r.sim_time.as_secs_f64() / 3600.0,
        }
    }

    fn digests(&self, r: &CampaignResult) -> Vec<u64> {
        vec![digest(r)]
    }

    fn pinned(&self, i: usize) -> Option<&[u64]> {
        self.pinned.as_deref().map(|p| &p[i..=i])
    }

    fn check(
        &self,
        tbs: &Vec<Testbed>,
        i: usize,
        r: &CampaignResult,
        deep: bool,
    ) -> Result<(), String> {
        if !r.exhaustive || r.sensitive.is_empty() {
            return Err(format!("{}: empty or non-exhaustive result", r.design));
        }
        if deep {
            spot_check(self, &tbs[i], r).map_err(|e| format!("{}: {e}", r.design))?;
        }
        Ok(())
    }

    fn traced(&self, tbs: &Vec<Testbed>) -> Trace {
        let mut layers = Layers::default();
        let mut checks = Checks::default();

        let (baseline, untraced) = timed(|| {
            (0..self.units())
                .map(|i| self.run_unit(tbs, i))
                .collect::<Vec<_>>()
        });
        for (i, b) in baseline.iter().enumerate() {
            checks.record("untraced baseline", self.check_baseline(tbs, i, b));
        }

        let mut wall = 0.0;
        let (mut recompile_s, mut unchanged) = (0.0, 0usize);
        let (mut scalar_s, mut wide_s) = (0.0, 0.0);
        let mut log = Vec::new();
        for (tb, base) in tbs.iter().zip(&baseline) {
            let before = layers.clone();
            let ((structural, verdict), t) = timed(|| split_one(self, tb, base, &mut layers));
            wall += t;
            checks.record(&format!("{}: traced split", base.design), verdict);

            let (tr, same) = recompile_probe(tb, &structural);
            recompile_s += tr;
            unchanged += same;

            let (ts, tw, verdict) = ratio_probe(self, tb);
            scalar_s += ts;
            wide_s += tw;
            checks.record(&format!("{}: wide/scalar sample", base.design), verdict);

            let d = |name| layers.get(name) - before.get(name);
            log.push(format!(
                "{}: {:.0} lane / {:.0} benign / {:.0} structural bits; triage {:.3} s, \
                 lane {:.3} s, fallback {:.3} s = {:.1}% of {t:.3} s; \
                 recompile {:.0} us/bit, {same} unchanged; wide/scalar {:.1}x",
                base.design,
                d("arch.triage.lane_bits"),
                d("arch.triage.benign_bits"),
                structural.len() as f64,
                d("arch.triage_s"),
                d("inject.lane_s"),
                d("inject.fallback_s"),
                100.0 * d("inject.fallback_s") / t,
                1e6 * tr / structural.len().max(1) as f64,
                ts / tw,
            ));
        }

        let lane_bits = layers.get("arch.triage.lane_bits");
        let structural = layers.get("arch.triage.structural_bits");
        let closure = lane_bits + structural + layers.get("arch.triage.benign_bits");
        layers.set(
            "arch.triage_us_per_bit",
            1e6 * layers.get("arch.triage_s") / closure,
        );
        layers.set(
            "inject.lane_us_per_exp",
            1e6 * layers.get("inject.lane_s") / lane_bits,
        );
        layers.set(
            "inject.lane_utilization",
            lane_bits / (layers.get("inject.lane_batches") * (cibola_arch::LANES - 1) as f64),
        );
        layers.set(
            "inject.fallback_us_per_bit",
            1e6 * layers.get("inject.fallback_s") / structural,
        );
        layers.set("arch.recompile_us", 1e6 * recompile_s / structural);
        layers.set("inject.fallback_same_topology", unchanged as f64);
        layers.set(
            "inject.fallback_share",
            layers.get("inject.fallback_s") / wall,
        );
        layers.set("inject.wide_over_scalar", scalar_s / wide_s);

        let stages = vec![
            "arch.closure_s",
            "arch.delta_build_s",
            "arch.triage_s",
            "inject.lane_s",
            "inject.fallback_s",
        ];
        layers.close(&stages, wall, untraced);
        Trace {
            layers,
            checks,
            stages,
            log,
        }
    }
}

/// One design's campaign, layer by layer. Accumulates stage
/// times and counts into `layers` and returns the structural bits, with
/// `Err` unless lane + fallback verdicts equal the untraced campaign's.
fn split_one(
    c: &Campaign,
    tb: &Testbed,
    untraced: &CampaignResult,
    layers: &mut Layers,
) -> (Vec<usize>, Result<(), String>) {
    let mut probe = tb.base.clone();
    let (bits, t) = timed(|| probe.active_config_bits());
    layers.add("arch.closure_s", t);

    let ((wide, delta), t) = timed(|| {
        let wide = WideEngine::new(&mut probe).expect("paper designs run on the wide engine");
        (wide, DeltaMap::build(&mut probe))
    });
    layers.add("arch.delta_build_s", t);

    let (classes, t) = timed(|| {
        bits.iter()
            .map(|&b| delta.classify(&mut probe, b))
            .collect::<Vec<_>>()
    });
    layers.add("arch.triage_s", t);

    let (mut lane_or_benign, mut structural) = (Vec::new(), Vec::new());
    let mut lanes = 0usize;
    for (&b, class) in bits.iter().zip(&classes) {
        match class {
            DeltaClass::Lane(_) => {
                lanes += 1;
                lane_or_benign.push(b);
            }
            DeltaClass::Benign => lane_or_benign.push(b),
            DeltaClass::Structural => structural.push(b),
        }
    }
    let benign = lane_or_benign.len() - lanes;
    layers.add("arch.triage.lane_bits", lanes as f64);
    layers.add("arch.triage.benign_bits", benign as f64);
    layers.add("arch.triage.structural_bits", structural.len() as f64);
    layers.add(
        "inject.lane_batches",
        lanes.div_ceil(wide.batch_capacity()) as f64,
    );

    let lane_cfg = c.config(BitSelection::List(lane_or_benign), true);
    let (lane, t) = timed(|| run_campaign_wide(tb, &lane_cfg));
    layers.add("inject.lane_s", t);
    let fallback_cfg = c.config(BitSelection::List(structural.clone()), true);
    let (fallback, t) = timed(|| run_campaign_wide(tb, &fallback_cfg));
    layers.add("inject.fallback_s", t);

    let mut joined = entries(lane.sensitive.iter().chain(&fallback.sensitive));
    joined.sort_unstable();
    layers.add("inject.sensitive_bits", joined.len() as f64);
    layers.add(
        "inject.persistent_bits",
        joined.iter().filter(|e| e.3).count() as f64,
    );
    let verdict = expect_eq("lane ∪ fallback", joined, entries(&untraced.sensitive));
    (structural, verdict)
}

/// Time `same_topology` after flipping each structural bit — the
/// recompile the fallback pays per bit. Returns the total seconds and how
/// many flips left the topology unchanged (recompiles that found nothing).
fn recompile_probe(tb: &Testbed, structural: &[usize]) -> (f64, usize) {
    let (mut golden, mut dut) = (tb.base.clone(), tb.base.clone());
    let (mut total, mut same) = (0.0, 0usize);
    for &b in structural {
        dut.flip_config_bit(b);
        let (eq, t) = timed(|| same_topology(&mut golden, &mut dut));
        total += t;
        same += eq as usize;
        dut.flip_config_bit(b);
    }
    (total, same)
}

/// Scalar and wide engines on the same fixed-seed closure sample, one
/// thread each: returns both host times, with `Err` unless the keys match.
fn ratio_probe(c: &Campaign, tb: &Testbed) -> (f64, f64, Result<(), String>) {
    let cfg = c.config(
        BitSelection::SampleClosure {
            fraction: c.ratio_fraction,
            seed: RATIO_SAMPLE_SEED,
        },
        false,
    );
    let (scalar, ts) = timed(|| run_campaign(tb, &cfg));
    let (wide, tw) = timed(|| run_campaign_wide(tb, &cfg));
    let verdict = expect_eq(
        "scalar vs wide sample",
        scalar.equivalence_key(),
        wide.equivalence_key(),
    );
    (ts, tw, verdict)
}
