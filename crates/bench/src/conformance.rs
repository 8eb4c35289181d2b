//! The cross-engine conformance corpus.
//!
//! A seeded, enumerable set of ~200 scenario cases, each of which runs
//! the same workload through two independent engines and demands
//! bit-identical results:
//!
//! * **Campaign cases** — scalar [`run_campaign`] vs the 64-lane
//!   [`run_campaign_wide`], compared on
//!   `CampaignResult::equivalence_key()` (per-bit classifications, error
//!   cycles, output masks, persistence verdicts, totals).
//! * **Mission cases** — the event-driven [`run_mission`] kernel vs the
//!   round-ticking [`run_mission_reference`] loop, compared on the whole
//!   `MissionStats` (`PartialEq`, float for float) plus the SOH history
//!   length.
//!
//! Every case has a stable ID and a 64-bit FNV-1a digest of its result,
//! persisted in the manifest at `tests/corpus/cases.tsv`. The
//! `corpus_replay` binary replays the corpus against the manifest (and
//! `--bless` regenerates it); the `corpus_smoke` integration test replays
//! a stride subset on every `cargo test`. A digest change means an engine
//! changed observable behaviour — which is either a bug or a contract
//! change that must be blessed deliberately.

use std::collections::{HashMap, HashSet};

use cibola::designs::PaperDesign;
use cibola::prelude::*;
use cibola::radiation::sefi::{SefiMix, SefiRates};
use cibola::radiation::SefiConfig;
use cibola::scrub::run_mission_reference;

/// Repo-relative manifest path (from the workspace root).
pub const MANIFEST_PATH: &str = "tests/corpus/cases.tsv";

// ---------------------------------------------------------------------------
// Deterministic derivation and digesting
// ---------------------------------------------------------------------------

/// splitmix64 — derives per-case seeds from case indices.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Incremental FNV-1a (64-bit) over canonicalised integers. Floats enter
/// via `to_bits`, so the digest is exact, not approximate.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest::default()
    }

    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn u128(&mut self, v: u128) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Case enumeration
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseParams {
    Campaign {
        design: usize,
        variant: usize,
        rep: usize,
    },
    Mission {
        regime: usize,
        rep: usize,
    },
    Strategy {
        strategy: usize,
        config: usize,
        rep: usize,
    },
}

#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// Stable ID, e.g. `camp-ctr6-v2-r1` or `miss-sefi-chaos-r4`.
    pub id: String,
    /// Human-readable parameter summary (a manifest column).
    pub spec: String,
    pub params: CaseParams,
}

/// Outcome of replaying one case.
#[derive(Debug)]
pub struct CaseOutcome {
    pub digest: u64,
    /// Both engines produced bit-identical results.
    pub engines_agree: bool,
    /// Diagnostic detail when they did not.
    pub detail: String,
}

/// The campaign design axis: every PaperDesign class that fits the tiny
/// device, two sizes where cheap. Index order is part of the corpus
/// contract — append, never reorder.
fn campaign_designs() -> Vec<(&'static str, PaperDesign)> {
    vec![
        ("ctr4", PaperDesign::CounterAdder { width: 4 }),
        ("ctr6", PaperDesign::CounterAdder { width: 6 }),
        ("madd8", PaperDesign::MultAdd { width: 8 }),
        (
            "lfsr1x12",
            PaperDesign::LfsrScaled {
                clusters: 1,
                bits: 12,
            },
        ),
        (
            "lfsr2x10",
            PaperDesign::LfsrScaled {
                clusters: 2,
                bits: 10,
            },
        ),
        ("lfsrmul3", PaperDesign::LfsrMultiplier { width: 3 }),
        (
            "filter3x4",
            PaperDesign::FilterPreproc {
                taps: 3,
                sample_bits: 4,
            },
        ),
        ("mult3", PaperDesign::Mult { width: 3 }),
        ("mult4", PaperDesign::Mult { width: 4 }),
        ("vmult4", PaperDesign::Vmult { width: 4 }),
    ]
}

/// The campaign configuration axis: (name, geometry, selection shape,
/// persistence classification). Selection seeds are derived per-case.
const CAMPAIGN_VARIANTS: usize = 4;
const CAMPAIGN_REPS: usize = 4;

fn campaign_variant_name(variant: usize) -> &'static str {
    match variant {
        0 => "sclo30",
        1 => "sclo50-persist",
        2 => "samp600",
        3 => "v2-sclo25-persist",
        _ => unreachable!(),
    }
}

/// The mission regime axis (event kernel vs reference loop). Same
/// configurations as `crates/scrub/tests/mission_equivalence.rs`, plus a
/// budgeted-SOH-downlink regime. Index order is part of the corpus
/// contract — append, never reorder.
const MISSION_REGIMES: [&str; 6] = [
    "quiet",
    "flare",
    "sefi-chaos",
    "periodic-reconfig",
    "degraded",
    "downlink",
];
const MISSION_REPS: usize = 9;

/// The strategy-zoo axis: every strategy runs the event-driven vs
/// reference strategy drivers over two configurations. Index order is
/// part of the corpus contract — append, never reorder.
const STRATEGY_CONFIGS: [&str; 2] = ["chaos", "storm"];
const STRATEGY_REPS: usize = 2;

/// The full corpus, in manifest order.
pub fn all_cases() -> Vec<CorpusCase> {
    let mut cases = Vec::new();
    let designs = campaign_designs();
    for (di, (dname, _)) in designs.iter().enumerate() {
        for variant in 0..CAMPAIGN_VARIANTS {
            for rep in 0..CAMPAIGN_REPS {
                cases.push(CorpusCase {
                    id: format!("camp-{dname}-v{variant}-r{rep}"),
                    spec: format!(
                        "campaign design={dname} variant={} rep={rep}",
                        campaign_variant_name(variant)
                    ),
                    params: CaseParams::Campaign {
                        design: di,
                        variant,
                        rep,
                    },
                });
            }
        }
    }
    for (ri, rname) in MISSION_REGIMES.iter().enumerate() {
        for rep in 0..MISSION_REPS {
            cases.push(CorpusCase {
                id: format!("miss-{rname}-r{rep}"),
                spec: format!(
                    "mission regime={rname} rep={rep} seed={}",
                    mission_seed(ri, rep)
                ),
                params: CaseParams::Mission { regime: ri, rep },
            });
        }
    }
    for (si, sname) in cibola_scrub::STRATEGY_NAMES.iter().enumerate() {
        for (ci, cname) in STRATEGY_CONFIGS.iter().enumerate() {
            for rep in 0..STRATEGY_REPS {
                cases.push(CorpusCase {
                    id: format!("strat-{sname}-{cname}-r{rep}"),
                    spec: format!(
                        "strategy={sname} config={cname} rep={rep} seed={}",
                        strategy_seed(si, ci, rep)
                    ),
                    params: CaseParams::Strategy {
                        strategy: si,
                        config: ci,
                        rep,
                    },
                });
            }
        }
    }
    cases
}

fn campaign_seed(design: usize, variant: usize, rep: usize) -> u64 {
    splitmix64(0xC0_4F0A_u64 ^ ((design as u64) << 16) ^ ((variant as u64) << 8) ^ rep as u64)
}

pub fn strategy_seed(strategy: usize, config: usize, rep: usize) -> u64 {
    match rep {
        0 => 1,
        1 => 42,
        _ => splitmix64(
            0x57_2A7E_u64 ^ ((strategy as u64) << 16) ^ ((config as u64) << 8) ^ rep as u64,
        ),
    }
}

pub fn mission_seed(regime: usize, rep: usize) -> u64 {
    // Pin the first reps of every regime to the seeds the differential
    // test suite historically used, then extend deterministically.
    match rep {
        0 => 1,
        1 => 42,
        2 => u64::MAX,
        _ => splitmix64(0x0031_5510_u64 ^ ((regime as u64) << 8) ^ rep as u64),
    }
}

// ---------------------------------------------------------------------------
// Replaying
// ---------------------------------------------------------------------------

pub fn run_case(case: &CorpusCase) -> CaseOutcome {
    match case.params {
        CaseParams::Campaign {
            design,
            variant,
            rep,
        } => run_campaign_case(design, variant, rep),
        CaseParams::Mission { regime, rep } => run_mission_case(regime, rep),
        CaseParams::Strategy {
            strategy,
            config,
            rep,
        } => run_strategy_case(strategy, config, rep),
    }
}

fn run_campaign_case(design: usize, variant: usize, rep: usize) -> CaseOutcome {
    let (_, d) = campaign_designs().swap_remove(design);
    let seed = campaign_seed(design, variant, rep);
    let sel_seed = splitmix64(seed);

    let geom = if variant == 3 {
        Geometry::tiny().with_virtex2_layout()
    } else {
        Geometry::tiny()
    };
    let (cycles, cfg) = match variant {
        0 => (
            96,
            CampaignConfig {
                observe_cycles: 48,
                classify_persistence: false,
                selection: BitSelection::SampleClosure {
                    fraction: 0.3,
                    seed: sel_seed,
                },
                ..Default::default()
            },
        ),
        1 => (
            160,
            CampaignConfig {
                observe_cycles: 48,
                persist_cycles: 64,
                persist_tail: 16,
                classify_persistence: true,
                selection: BitSelection::SampleClosure {
                    fraction: 0.5,
                    seed: sel_seed,
                },
                ..Default::default()
            },
        ),
        2 => (
            64,
            CampaignConfig {
                observe_cycles: 32,
                classify_persistence: false,
                selection: BitSelection::Sample {
                    count: 600,
                    seed: sel_seed,
                },
                ..Default::default()
            },
        ),
        3 => (
            128,
            CampaignConfig {
                observe_cycles: 40,
                persist_cycles: 48,
                persist_tail: 12,
                classify_persistence: true,
                selection: BitSelection::SampleClosure {
                    fraction: 0.25,
                    seed: sel_seed,
                },
                ..Default::default()
            },
        ),
        _ => unreachable!(),
    };

    let imp = implement(&d.netlist(), &geom).expect("corpus designs fit the tiny device");
    let tb = Testbed::new(&imp, seed, cycles);
    let scalar = run_campaign(&tb, &cfg);
    let wide = run_campaign_wide(&tb, &cfg);

    let key_s = scalar.equivalence_key();
    let key_w = wide.equivalence_key();
    let engines_agree = key_s == key_w;
    let detail = if engines_agree {
        String::new()
    } else {
        format!(
            "scalar vs wide diverged: {} vs {} sensitive, {} vs {} injections",
            scalar.sensitive.len(),
            wide.sensitive.len(),
            scalar.injections,
            wide.injections
        )
    };

    let mut h = Digest::new();
    let (sens, counts, exhaustive, sim_ns) = key_s;
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

    CaseOutcome {
        digest: h.finish(),
        engines_agree,
        detail,
    }
}

pub fn sefi_config() -> SefiConfig {
    SefiConfig {
        rates: SefiRates {
            quiet_per_hour: 6.7,
            flare_per_hour: 53.0,
            devices: 9,
        },
        mix: SefiMix::default(),
    }
}

/// The mission regimes, mirroring the differential test suite: quiet,
/// flare storm, SEFI chaos, periodic reconfig, degraded device, plus a
/// budgeted-downlink regime that exercises SOH shedding in both kernels.
pub fn mission_config(regime: usize, seed: u64) -> (MissionConfig, bool) {
    let storm = OrbitRates {
        quiet_per_hour: 400.0,
        flare_per_hour: 3200.0,
        devices: 9,
    };
    match regime {
        0 => (
            MissionConfig {
                duration: SimDuration::from_secs(1800),
                rates: OrbitRates::default(),
                seed,
                ..Default::default()
            },
            false,
        ),
        1 => (
            MissionConfig {
                duration: SimDuration::from_secs(400),
                rates: storm,
                flare: Some((SimTime::from_secs(100), SimTime::from_secs(250))),
                seed,
                ..Default::default()
            },
            false,
        ),
        2 => (
            MissionConfig {
                duration: SimDuration::from_secs(450),
                rates: storm,
                flare: Some((SimTime::from_secs(120), SimTime::from_secs(240))),
                periodic_full_reconfig: Some(SimDuration::from_secs(200)),
                sefi: Some(sefi_config()),
                seed,
                ..Default::default()
            },
            false,
        ),
        3 => (
            MissionConfig {
                duration: SimDuration::from_secs(900),
                rates: OrbitRates {
                    quiet_per_hour: 30.0,
                    flare_per_hour: 240.0,
                    devices: 9,
                },
                periodic_full_reconfig: Some(SimDuration::from_secs(120)),
                seed,
                ..Default::default()
            },
            false,
        ),
        4 => (
            MissionConfig {
                duration: SimDuration::from_secs(400),
                rates: storm,
                periodic_full_reconfig: Some(SimDuration::from_secs(150)),
                sefi: Some(sefi_config()),
                seed,
                ..Default::default()
            },
            true,
        ),
        5 => (
            MissionConfig {
                duration: SimDuration::from_secs(600),
                rates: storm,
                flare: Some((SimTime::from_secs(150), SimTime::from_secs(350))),
                soh_downlink: Some(SohDownlinkPolicy::new(
                    96,
                    SimDuration::from_secs(60).as_nanos(),
                    16,
                )),
                seed,
                ..Default::default()
            },
            false,
        ),
        _ => unreachable!(),
    }
}

/// Counter/Adder 4 on all nine positions: the payload the corpus
/// missions, E12 and E13 fly.
pub fn corpus_payload(geom: &Geometry) -> Payload {
    let imp = implement(&PaperDesign::CounterAdder { width: 4 }.netlist(), geom)
        .expect("counter fits tiny geometry");
    crate::nine_fpga_payload(geom, &imp, "ctr")
}

/// Knock one device's golden image uncorrectable and unprogram it, so the
/// escalation ladder degrades it early (the `degraded` regime).
pub fn damage_for_degradation(payload: &mut Payload) {
    payload.flash.upset_data_bit(0, 3, 5);
    payload.flash.upset_data_bit(0, 3, 9);
    payload.fpga_mut(0, 0).device.upset_config_fsm();
}

/// A synthetic sensitivity map covering a couple of positions, so the
/// sensitive/insensitive branch of upset accounting is exercised too.
pub fn sparse_sensitivity() -> HashMap<(usize, usize), HashSet<usize>> {
    let mut m = HashMap::new();
    m.insert((0, 0), (0..64usize).collect::<HashSet<_>>());
    m.insert((1, 2), HashSet::new());
    m
}

fn run_mission_case(regime: usize, rep: usize) -> CaseOutcome {
    let seed = mission_seed(regime, rep);
    let (cfg, damaged) = mission_config(regime, seed);
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();

    let mut p_event = corpus_payload(&geom);
    let mut p_ref = corpus_payload(&geom);
    if damaged {
        damage_for_degradation(&mut p_event);
        damage_for_degradation(&mut p_ref);
    }

    let event = run_mission(&mut p_event, &cfg, &sens);
    let reference = run_mission_reference(&mut p_ref, &cfg, &sens);

    let engines_agree = event == reference && p_event.soh.len() == p_ref.soh.len();
    let detail = if engines_agree {
        String::new()
    } else if event != reference {
        format!("MissionStats diverged:\n event: {event:?}\n ref:   {reference:?}")
    } else {
        format!(
            "SOH history diverged: {} vs {} records",
            p_event.soh.len(),
            p_ref.soh.len()
        )
    };

    let mut h = Digest::new();
    for (name, value) in event.summary_fields() {
        h.bytes(name.as_bytes()).f64(value);
    }
    h.u64(p_event.soh.len() as u64);

    CaseOutcome {
        digest: h.finish(),
        engines_agree,
        detail,
    }
}

/// The strategy-case configurations: the SEFI-chaos regime and the plain
/// flare storm, mirroring mission regimes 2 and 1.
pub fn strategy_config(config: usize, seed: u64) -> MissionConfig {
    let storm = OrbitRates {
        quiet_per_hour: 400.0,
        flare_per_hour: 3200.0,
        devices: 9,
    };
    match config {
        0 => MissionConfig {
            duration: SimDuration::from_secs(450),
            rates: storm,
            flare: Some((SimTime::from_secs(120), SimTime::from_secs(240))),
            periodic_full_reconfig: Some(SimDuration::from_secs(200)),
            sefi: Some(sefi_config()),
            seed,
            ..Default::default()
        },
        1 => MissionConfig {
            duration: SimDuration::from_secs(400),
            rates: storm,
            flare: Some((SimTime::from_secs(100), SimTime::from_secs(250))),
            seed,
            ..Default::default()
        },
        _ => unreachable!(),
    }
}

/// Event-driven vs reference strategy drivers, digested on the combined
/// `StrategyMissionStats::summary_fields` plus the SOH history length.
fn run_strategy_case(strategy: usize, config: usize, rep: usize) -> CaseOutcome {
    use cibola::scrub::{
        make_strategy, run_strategy_mission, run_strategy_mission_reference, STRATEGY_NAMES,
    };

    let name = STRATEGY_NAMES[strategy];
    let seed = strategy_seed(strategy, config, rep);
    let cfg = strategy_config(config, seed);
    let geom = Geometry::tiny();
    let sens = sparse_sensitivity();

    let mut p_event = corpus_payload(&geom);
    let mut p_ref = corpus_payload(&geom);
    let mut s_event = make_strategy(name);
    let mut s_ref = make_strategy(name);

    let event = run_strategy_mission(&mut p_event, &cfg, &sens, s_event.as_mut());
    let reference = run_strategy_mission_reference(&mut p_ref, &cfg, &sens, s_ref.as_mut());

    let engines_agree = event == reference && p_event.soh.len() == p_ref.soh.len();
    let detail = if engines_agree {
        String::new()
    } else if event != reference {
        format!("StrategyMissionStats diverged:\n event: {event:?}\n ref:   {reference:?}")
    } else {
        format!(
            "SOH history diverged: {} vs {} records",
            p_event.soh.len(),
            p_ref.soh.len()
        )
    };

    let mut h = Digest::new();
    for (fname, value) in event.summary_fields() {
        h.bytes(fname.as_bytes()).f64(value);
    }
    h.u64(p_event.soh.len() as u64);

    CaseOutcome {
        digest: h.finish(),
        engines_agree,
        detail,
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One `id \t spec \t digest` line.
pub fn manifest_line(case: &CorpusCase, digest: u64) -> String {
    format!("{}\t{}\t{digest:016x}", case.id, case.spec)
}

/// Parse the manifest into `(id, spec, digest)` rows. Lines starting with
/// `#` and blank lines are skipped.
pub fn parse_manifest(text: &str) -> Result<Vec<(String, String, u64)>, String> {
    let mut rows = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let (id, spec, hex) = (parts.next(), parts.next(), parts.next());
        match (id, spec, hex) {
            (Some(id), Some(spec), Some(hex)) => {
                let digest = u64::from_str_radix(hex, 16)
                    .map_err(|e| format!("line {}: bad digest {hex:?}: {e}", ln + 1))?;
                rows.push((id.to_string(), spec.to_string(), digest));
            }
            _ => return Err(format!("line {}: expected 3 tab-separated fields", ln + 1)),
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_large_and_uniquely_identified() {
        let cases = all_cases();
        assert!(cases.len() >= 200, "corpus shrank to {} cases", cases.len());
        let ids: HashSet<&str> = cases.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), cases.len(), "case IDs must be unique");
    }

    #[test]
    fn manifest_roundtrips() {
        let cases = all_cases();
        let text: String = cases
            .iter()
            .enumerate()
            .map(|(i, c)| manifest_line(c, splitmix64(i as u64)) + "\n")
            .collect();
        let rows = parse_manifest(&text).unwrap();
        assert_eq!(rows.len(), cases.len());
        for (i, (id, spec, digest)) in rows.iter().enumerate() {
            assert_eq!(id, &cases[i].id);
            assert_eq!(spec, &cases[i].spec);
            assert_eq!(*digest, splitmix64(i as u64));
        }
    }

    #[test]
    fn seeds_are_deterministic() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_eq!(mission_seed(0, 0), 1);
        assert_eq!(mission_seed(3, 1), 42);
        assert_eq!(mission_seed(5, 2), u64::MAX);
    }
}
