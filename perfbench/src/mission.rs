//! The `mission-storm` workload: a Monte-Carlo ensemble of the
//! accelerated-storm scenario, one member per unit, each flown with
//! telemetry recording and closed by a reconciled forensics report.
//!
//! The traced split flies the same members with [`fly_traced`], a loop
//! that makes exactly the public `MissionKernel` calls `run_mission`
//! makes, in the same order, with a timer around each — and demands the
//! same `MissionStats` and forensics report as the untraced run.

use std::collections::{HashMap, HashSet};

use cibola::designs::PaperDesign;
use cibola::prelude::*;
use cibola_forensics::{parse_jsonl, MissionForensics};
use cibola_scrub::ensemble::member_seed;
use cibola_scrub::{run_mission_reference, EnsembleResult, MissionKernel, MissionStats};

use crate::{
    expect_eq, input_seed, timed, Checks, Digest, Layers, SetupSplit, Trace, Work, Workload,
};

pub type Sensitivity = HashMap<(usize, usize), HashSet<usize>>;

/// The default seed's storm members — each member's summary-field and
/// forensics-report digests — then the digest of the ensemble aggregate.
pub const STORM_PINNED: [u64; 9] = [
    0x82da_5668_35d8_bc0b,
    0xdb51_915d_b432_c55b,
    0x7c54_c126_41ca_23af,
    0xf916_4605_46c8_0fd4,
    0x776e_2531_a232_4e28,
    0xc449_dc3e_0d43_4f77,
    0xc0e1_27d2_5563_27da,
    0x062c_9438_4b85_3a0c,
    0x264f_f3b2_4dcc_4071,
];

/// FNV-1a over `MissionStats::summary_fields`, as the conformance corpus
/// digests missions.
pub fn stats_digest(s: &MissionStats) -> u64 {
    let mut h = Digest::new();
    for (name, value) in s.summary_fields() {
        h.bytes(name.as_bytes()).f64(value);
    }
    h.finish()
}

/// FNV-1a over a value's `Debug` rendering (exact for floats: Rust
/// prints the shortest round-tripping decimal).
fn debug_digest(v: &impl std::fmt::Debug) -> u64 {
    let mut h = Digest::new();
    h.bytes(format!("{v:?}").as_bytes());
    h.finish()
}

/// The nine-FPGA tiny payload the storm flies: 4-bit Counter/Adder in
/// all nine positions.
fn build_payload(geometry: &Geometry, split: &mut SetupSplit) -> Payload {
    let (imp, t) = timed(|| {
        implement(&PaperDesign::CounterAdder { width: 4 }.netlist(), geometry)
            .expect("counter fits the tiny geometry")
    });
    split.implement_s += t;
    let (payload, t) = timed(|| cibola_bench::nine_fpga_payload(geometry, &imp, "ctr"));
    split.payload_s += t;
    payload
}

/// Host time of every kernel call one traced mission made.
#[derive(Debug, Default, Clone, Copy)]
struct KernelTimes {
    next_round: f64,
    land_upsets: f64,
    land_sefis: f64,
    apply_outcome: f64,
    refresh: f64,
    finish: f64,
    work_pass: f64,
    work_passes: usize,
    clean_pass: f64,
    clean_passes: usize,
    executed: u64,
    skipped: u64,
}

impl KernelTimes {
    /// Record every kernel layer; returns a line splitting the board
    /// passes into work and clean ones.
    fn record(&self, layers: &mut Layers) -> String {
        let per_pass = |total: f64, n: usize| if n == 0 { 0.0 } else { 1e6 * total / n as f64 };
        layers.set("scrub.next_round_s", self.next_round);
        layers.set("radiation.land_upsets_s", self.land_upsets);
        layers.set("radiation.land_sefis_s", self.land_sefis);
        layers.set("scrub.apply_outcome_s", self.apply_outcome);
        layers.set("scrub.refresh_s", self.refresh);
        layers.set("scrub.finish_s", self.finish);
        layers.set("scrub.board_pass_s", self.work_pass + self.clean_pass);
        layers.set(
            "scrub.board_passes",
            (self.work_passes + self.clean_passes) as f64,
        );
        layers.set(
            "scrub.work_pass_us",
            per_pass(self.work_pass, self.work_passes),
        );
        layers.set(
            "scrub.clean_pass_us",
            per_pass(self.clean_pass, self.clean_passes),
        );
        layers.set("scrub.executed_rounds", self.executed as f64);
        layers.set("scrub.skipped_rounds", self.skipped as f64);
        format!(
            "board passes: {} with work, {:.3} s; {} clean, {:.3} s",
            self.work_passes, self.work_pass, self.clean_passes, self.clean_pass
        )
    }
}

/// The mission stages whose times (with `trace.other_s`) make up a traced
/// mission's wall time.
const KERNEL_STAGES: [&str; 7] = [
    "scrub.next_round_s",
    "radiation.land_upsets_s",
    "radiation.land_sefis_s",
    "scrub.board_pass_s",
    "scrub.apply_outcome_s",
    "scrub.refresh_s",
    "scrub.finish_s",
];

/// `run_mission`, driven through the same public kernel calls in the same
/// order, with each call timed. Per executed round: land upsets, land
/// SEFIs, then per live board fill the dirty hints, `scrub_board` and
/// fold the outcome in, settle, periodic refresh, count the cycle.
fn fly_traced(
    payload: &mut Payload,
    cfg: &MissionConfig,
    sens: &Sensitivity,
    kt: &mut KernelTimes,
) -> MissionStats {
    let mut k = MissionKernel::new(payload, cfg, sens);
    let round_ns = k.round().as_nanos();
    let total_rounds = k.end().as_nanos().div_ceil(round_ns);
    let mut dirty = Vec::new();
    let mut r = 0u64;
    while r < total_rounds {
        let (nr, t) = timed(|| k.next_active_round(r, round_ns));
        kt.next_round += t;
        let nr = nr.min(total_rounds);
        if nr > r {
            k.note_rounds_skipped(r, nr, round_ns);
            kt.skipped += nr - r;
            r = nr;
            continue;
        }
        let now = SimTime(r * round_ns);
        let round_end = SimTime((r + 1) * round_ns);
        kt.land_upsets += timed(|| k.land_upsets(round_end)).1;
        kt.land_sefis += timed(|| k.land_sefis(round_end)).1;
        for bi in 0..k.live_boards().len() {
            let b = k.live_boards()[bi];
            kt.apply_outcome += timed(|| k.fill_board_dirty(b, &mut dirty)).1;
            // A pass has work when a device is dirty or holds latched
            // port faults; otherwise it is the charged-time fast path.
            let work = dirty.iter().any(|&d| d)
                || k.payload().boards[b]
                    .fpgas
                    .iter()
                    .any(|f| f.device.pending_port_faults() > 0);
            let (out, t) = timed(|| k.payload_mut().scrub_board(b, now, &dirty));
            if work {
                kt.work_pass += t;
                kt.work_passes += 1;
            } else {
                kt.clean_pass += t;
                kt.clean_passes += 1;
            }
            kt.apply_outcome += timed(|| k.apply_board_outcome(b, &out, round_end)).1;
        }
        kt.apply_outcome += timed(|| k.settle_dirty()).1;
        kt.refresh += timed(|| k.periodic_refresh(round_end)).1;
        k.add_scrub_cycles(1);
        kt.executed += 1;
        r += 1;
    }
    let (stats, t) = timed(|| k.finish());
    kt.finish += t;
    stats
}

// ---------------------------------------------------------------------------
// mission-storm
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Storm {
    pub geometry: Geometry,
    pub ensemble: EnsembleConfig,
    /// Horizon of the event-driven vs reference-kernel probe, seconds.
    pub reference_horizon_s: u64,
    pub pinned: Option<Vec<u64>>,
}

impl Storm {
    /// The `bench_mission` storm: 12 h, 120/960 upsets·h⁻¹ with a flare
    /// in hours 3–4, hourly full reconfiguration, no SEFIs; four members
    /// on one thread.
    pub fn paper(seed: u64) -> Self {
        let mission = MissionConfig {
            duration: SimDuration::from_secs(12 * 3600),
            rates: OrbitRates {
                quiet_per_hour: 120.0,
                flare_per_hour: 960.0,
                devices: 9,
            },
            flare: Some((SimTime::from_secs(3 * 3600), SimTime::from_secs(4 * 3600))),
            periodic_full_reconfig: Some(SimDuration::from_secs(3600)),
            sefi: None,
            ..Default::default()
        };
        Storm {
            geometry: Geometry::tiny(),
            ensemble: EnsembleConfig {
                mission,
                base_seed: input_seed(seed, 0x00E5_EB1E, 0x5707_3E00),
                missions: 4,
                parallel: false,
                telemetry: Telemetry::disabled(),
            },
            reference_horizon_s: 300,
            pinned: (seed == crate::DEFAULT_SEED).then(|| STORM_PINNED.to_vec()),
        }
    }

    /// Member `i`'s mission: the storm under its ensemble seed.
    fn member(&self, i: usize) -> MissionConfig {
        MissionConfig {
            seed: member_seed(self.ensemble.base_seed, i),
            ..self.ensemble.mission.clone()
        }
    }

    /// `run_ensemble` (members flown without telemetry) must agree with
    /// the members flown one by one, add up, and match the pinned
    /// aggregate digest when there is one.
    fn check_ensemble(
        &self,
        out: &EnsembleResult,
        members: &[Result<MissionOutput, String>],
    ) -> Result<(), String> {
        let stats: Vec<Option<&MissionStats>> = members
            .iter()
            .map(|m| m.as_ref().ok().map(|m| &m.stats))
            .collect();
        expect_eq(
            "ensemble members",
            stats,
            out.runs.iter().map(Some).collect(),
        )?;
        expect_eq(
            "upset total",
            out.stats.upsets_total,
            out.runs.iter().map(|r| r.upsets_total).sum::<usize>(),
        )?;
        match &self.pinned {
            Some(p) => expect_eq(
                "aggregate digest",
                debug_digest(&out.stats),
                p[2 * out.runs.len()],
            ),
            None => Ok(()),
        }
    }
}

impl Workload for Storm {
    type Setup = Payload;
    type Unit = Result<MissionOutput, String>;

    fn setup(&self, split: &mut SetupSplit) -> Payload {
        build_payload(&self.geometry, split)
    }

    fn units(&self) -> usize {
        self.ensemble.missions
    }

    /// One ensemble member as `run_ensemble` flies it, with telemetry
    /// recording, then dump → parse → report → reconcile.
    fn run_unit(&self, proto: &Payload, i: usize) -> Self::Unit {
        let tele = Telemetry::recording();
        let mut payload = proto.clone().with_telemetry(tele.clone());
        let stats = run_mission(&mut payload, &self.member(i), &HashMap::new());
        forensics(&tele, stats, &mut [0.0; 4])
    }

    fn work(&self, out: &Self::Unit) -> Work {
        out.as_ref().map_or(Work::default(), |o| Work {
            experiments: o.stats.upsets_total as f64,
            sim_hours: o.stats.elapsed_s / 3600.0,
        })
    }

    fn digests(&self, out: &Self::Unit) -> Vec<u64> {
        match out {
            Ok(o) => vec![stats_digest(&o.stats), report_digest(&o.report)],
            Err(_) => Vec::new(),
        }
    }

    fn pinned(&self, i: usize) -> Option<&[u64]> {
        self.pinned.as_deref().map(|p| &p[2 * i..2 * i + 2])
    }

    fn check(&self, _: &Payload, _: usize, out: &Self::Unit, _deep: bool) -> Result<(), String> {
        let o = out.as_ref().map_err(Clone::clone)?;
        if o.stats.upsets_total == 0 || !(0.0..=1.0).contains(&o.stats.availability) {
            return Err(format!(
                "implausible member: {} upsets, availability {}",
                o.stats.upsets_total, o.stats.availability
            ));
        }
        if !o.mismatches.is_empty() {
            return Err(format!("reconcile: {:?}", o.mismatches));
        }
        if o.events == 0 {
            return Err("empty telemetry dump".to_string());
        }
        Ok(())
    }

    fn traced(&self, proto: &Payload) -> Trace {
        let mut layers = Layers::default();
        let mut checks = Checks::default();
        let sens = Sensitivity::new();
        let n = self.units();

        let (baseline, untraced) =
            timed(|| (0..n).map(|i| self.run_unit(proto, i)).collect::<Vec<_>>());
        for (i, b) in baseline.iter().enumerate() {
            checks.record("untraced baseline", self.check_baseline(proto, i, b));
        }
        let ensemble = run_ensemble(&self.ensemble, &sens, |_| proto.clone());
        checks.record("ensemble", self.check_ensemble(&ensemble, &baseline));

        let mut kt = KernelTimes::default();
        let mut times = [0.0; 4];
        let (traced, wall) = timed(|| {
            (0..n)
                .map(|i| {
                    let tele = Telemetry::recording();
                    let mut payload = proto.clone().with_telemetry(tele.clone());
                    let stats = fly_traced(&mut payload, &self.member(i), &sens, &mut kt);
                    forensics(&tele, stats, &mut times)
                })
                .collect::<Vec<_>>()
        });
        let passes = kt.record(&mut layers);
        for (name, t) in FORENSICS_STAGES.into_iter().zip(times) {
            layers.set(name, t);
        }
        for (i, (t, b)) in traced.iter().zip(&baseline).enumerate() {
            let verdict = match (t, b) {
                (Ok(t), Ok(b)) => {
                    layers.add("telemetry.events", t.events as f64);
                    layers.add("telemetry.dump_bytes", t.dump_bytes as f64);
                    layers.add("forensics.mismatches", t.mismatches.len() as f64);
                    expect_eq("traced stats", &t.stats, &b.stats)
                        .and_then(|()| {
                            expect_eq(
                                "traced report",
                                report_digest(&t.report),
                                report_digest(&b.report),
                            )
                        })
                        .and_then(|()| self.check(proto, i, &traced[i], false))
                }
                (Err(e), _) | (_, Err(e)) => Err(e.clone()),
            };
            checks.record(&format!("traced member {i}"), verdict);
        }

        checks.record("reference probe", reference_probe(self, proto, &mut layers));

        let mut stages = KERNEL_STAGES.to_vec();
        stages.extend(FORENSICS_STAGES);
        layers.close(&stages, wall, untraced);
        Trace {
            layers,
            checks,
            stages,
            log: vec![passes],
        }
    }
}

/// The event-driven and the every-round reference kernels over a short
/// storm horizon: `scrub.event_over_reference` and the reference cost per
/// round. The event-driven side is repeated until it has run 0.2 s and
/// its median taken, so the ratio's small denominator is not one sample.
fn reference_probe(s: &Storm, proto: &Payload, layers: &mut Layers) -> Result<(), String> {
    let cfg = MissionConfig {
        duration: SimDuration::from_secs(s.reference_horizon_s),
        seed: member_seed(s.ensemble.base_seed, 0),
        ..s.ensemble.mission.clone()
    };
    let sens = Sensitivity::new();
    let (reference, t_ref) = timed(|| run_mission_reference(&mut proto.clone(), &cfg, &sens));
    let mut event_times = Vec::new();
    let mut event = None;
    while event_times.iter().sum::<f64>() < 0.2 || event_times.len() < 3 {
        let (stats, t) = timed(|| run_mission(&mut proto.clone(), &cfg, &sens));
        event_times.push(t);
        event = Some(stats);
    }
    let t_event = crate::median(&event_times);
    layers.set("scrub.event_over_reference", t_ref / t_event);
    layers.set(
        "scrub.reference_us_per_round",
        1e6 * t_ref / reference.scrub_cycles as f64,
    );
    expect_eq("event vs reference", event.as_ref(), Some(&reference))
}

/// One mission's outputs, through forensics.
#[derive(Debug)]
pub struct MissionOutput {
    pub stats: MissionStats,
    pub events: usize,
    pub dump_bytes: usize,
    pub report: MissionForensics,
    pub mismatches: Vec<String>,
}

/// FNV-1a over the forensics report's JSON rendering.
fn report_digest(report: &MissionForensics) -> u64 {
    let mut h = Digest::new();
    h.bytes(report.to_json().as_bytes());
    h.finish()
}

/// The forensics stages, in order, whose times [`forensics`] records.
const FORENSICS_STAGES: [&str; 4] = [
    "telemetry.dump_s",
    "forensics.parse_s",
    "forensics.report_s",
    "forensics.reconcile_s",
];

/// Dump → parse → report → reconcile, each stage timed into `times`
/// in [`FORENSICS_STAGES`] order.
fn forensics(
    tele: &Telemetry,
    stats: MissionStats,
    times: &mut [f64; 4],
) -> Result<MissionOutput, String> {
    let (dump, t) = timed(|| tele.dump_jsonl());
    times[0] += t;
    let (raw, t) = timed(|| parse_jsonl(&dump));
    times[1] += t;
    let raw = raw.map_err(|e| format!("parse: {e:?}"))?;
    let (report, t) = timed(|| MissionForensics::from_raw(&raw));
    times[2] += t;
    let report = report.map_err(|e| format!("report: {e:?}"))?;
    let (mismatches, t) = timed(|| report.reconcile());
    times[3] += t;
    Ok(MissionOutput {
        stats,
        events: raw.len(),
        dump_bytes: dump.len(),
        report,
        mismatches,
    })
}
