//! The cibola benchmark: the paper's two waited-on workloads — the SEU
//! simulator's exhaustive injection campaign (§III-A) and the scrubbing
//! payload flying through LEO upsets (§II) — measured end to end, plus a
//! separate traced run that splits host time by layer.
//!
//! Every layer is timed from outside, around calls into its public API;
//! no library code carries timers. See `README.md` beside this crate for
//! the workloads, the metric definitions and the per-layer → end-to-end
//! map.

use std::collections::BTreeMap;
use std::time::Instant;

pub mod campaign;
pub mod mission;

pub use cibola_bench::conformance::{splitmix64, Digest};

/// The seed whose inputs are the paper's fixed seeds (stimulus
/// `0xC1B07A`, ensemble base `0x00E5EB1E`) and whose
/// outputs are pinned by digest. Every other seed derives fresh inputs
/// and is checked for self-consistency instead.
pub const DEFAULT_SEED: u64 = 42;

/// Set-ups timed before the first unit of an untraced run (and in a
/// traced run's set-up split); an untraced run then times one more after
/// every unit, so its set-up samples spread over the whole run.
pub const SETUP_REPS: usize = 7;

/// Rounds per untraced run, at least, whatever `--seconds` says: every
/// unit is timed at least this often.
pub const MIN_ROUNDS: usize = 2;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("norm_wall_s", "s"),
    ("norm_exp_per_s", "1/s"),
    ("norm_sim_h_per_s", "h/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A layer
/// that does not run on a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // set-up
    ("netlist.implement_s", "s"),
    ("inject.testbed_s", "s"),
    ("scrub.payload_build_s", "s"),
    // campaign: closure, triage, lanes, structural fallback
    ("arch.closure_s", "s"),
    ("arch.delta_build_s", "s"),
    ("arch.triage_s", "s"),
    ("arch.triage_us_per_bit", "us"),
    ("arch.triage.lane_bits", "count"),
    ("arch.triage.benign_bits", "count"),
    ("arch.triage.structural_bits", "count"),
    ("arch.recompile_us", "us"),
    ("inject.lane_s", "s"),
    ("inject.lane_us_per_exp", "us"),
    ("inject.lane_batches", "count"),
    ("inject.lane_utilization", "ratio"),
    ("inject.fallback_s", "s"),
    ("inject.fallback_us_per_bit", "us"),
    ("inject.fallback_share", "ratio"),
    ("inject.fallback_same_topology", "count"),
    ("inject.sensitive_bits", "count"),
    ("inject.persistent_bits", "count"),
    ("inject.wide_over_scalar", "x"),
    // mission kernel and environment
    ("scrub.next_round_s", "s"),
    ("radiation.land_upsets_s", "s"),
    ("radiation.land_sefis_s", "s"),
    ("scrub.apply_outcome_s", "s"),
    ("scrub.refresh_s", "s"),
    ("scrub.finish_s", "s"),
    ("scrub.executed_rounds", "count"),
    ("scrub.skipped_rounds", "count"),
    // scrub passes
    ("scrub.board_pass_s", "s"),
    ("scrub.board_passes", "count"),
    ("scrub.work_pass_us", "us"),
    ("scrub.clean_pass_us", "us"),
    ("scrub.event_over_reference", "x"),
    ("scrub.reference_us_per_round", "us"),
    // telemetry and forensics
    ("telemetry.events", "count"),
    ("telemetry.dump_s", "s"),
    ("telemetry.dump_bytes", "bytes"),
    ("forensics.parse_s", "s"),
    ("forensics.report_s", "s"),
    ("forensics.reconcile_s", "s"),
    ("forensics.mismatches", "count"),
    // bookkeeping
    ("trace.wall_s", "s"),
    ("trace.other_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("run.host_cpus", "count"),
    ("run.rayon_threads", "count"),
    ("run.ref_loop_ms", "ms"),
];

/// Host seconds spent in `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Multiply-adds per chain in one [`reference_loop`].
const REF_ITERS: u64 = 3_000_000;

/// Seconds one [`reference_loop`] is taken to last on the nominal host;
/// the `norm_*` metrics rescale every timed unit to that host.
pub const REF_NOMINAL_S: f64 = 0.010;

/// Time the reference loop: eight independent 64-bit multiply-add chains,
/// a fixed amount of work that keeps the core's execution ports busy.
///
/// On a 2-vCPU VM sharing its machine with other tenants, this code
/// runs up to 50 % slower for seconds to minutes at a time while
/// latency-bound compute and memory-walk loops barely move; a
/// throughput-bound loop like this one slows with it. Rescaling each unit by this loop, timed
/// just before and after it, cut the spread of ten runs' times from
/// 23–28 % to 3–9 %.
pub fn reference_loop() -> f64 {
    let n = std::hint::black_box(REF_ITERS);
    let (chains, t) = timed(|| {
        let mut a = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for k in 0..n {
            for x in a.iter_mut() {
                *x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(k);
            }
        }
        a
    });
    std::hint::black_box(chains);
    t
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// A per-workload input seed: the paper's `fixed` seed for
/// [`DEFAULT_SEED`], otherwise a splitmix64 derivation salted per
/// workload so two workloads never share a stream.
pub fn input_seed(seed: u64, fixed: u64, salt: u64) -> u64 {
    if seed == DEFAULT_SEED {
        fixed
    } else {
        splitmix64(seed ^ salt)
    }
}

/// Work one unit completed, for the throughput metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Injected upsets followed to an outcome: closure experiments for a
    /// campaign, landed upsets for a mission.
    pub experiments: f64,
    /// Simulated hours: testbed time (the paper's 214 µs/bit loop) for a
    /// campaign, payload flight time for a mission.
    pub sim_hours: f64,
}

/// Host-time split of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    pub implement_s: f64,
    pub testbed_s: f64,
    pub payload_s: f64,
}

/// Operations attempted and failed, with the first failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("{what}: {e}"));
            }
        }
    }
}

/// `Err` naming `what` unless `a == b`.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, a: T, b: T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} != {b:?}"))
    }
}

/// Per-layer values keyed by [`PER_LAYER`] name.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn known(name: &'static str) -> &'static str {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        name
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(Self::known(name), v);
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(Self::known(name)).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Close the split: `trace.other_s` is whatever of `wall` the named
    /// stages did not cover, so stages plus residual sum to the traced
    /// wall time; `trace.overhead_frac` compares it with the untraced
    /// body measured in the same run.
    pub fn close(&mut self, stages: &[&'static str], wall: f64, untraced: f64) {
        let covered: f64 = stages.iter().map(|s| self.get(s)).sum();
        self.set("trace.wall_s", wall);
        self.set("trace.other_s", wall - covered);
        self.set("trace.overhead_frac", wall / untraced - 1.0);
    }
}

/// One traced run's outcome.
#[derive(Debug, Default)]
pub struct Trace {
    pub layers: Layers,
    pub checks: Checks,
    /// Stage names whose times (with `trace.other_s`) sum to
    /// `trace.wall_s`.
    pub stages: Vec<&'static str>,
    /// Human-readable detail, e.g. the split per design.
    pub log: Vec<String>,
}

/// A benchmark workload: inputs built once per set-up, then an operation
/// made of independent units — one design's campaign, one ensemble
/// member, one mission — each timed on its own.
pub trait Workload {
    type Setup;
    /// What one unit outputs.
    type Unit;
    fn setup(&self, split: &mut SetupSplit) -> Self::Setup;
    /// Units in one operation.
    fn units(&self) -> usize;
    /// The timed body: unit `i` of the operation.
    fn run_unit(&self, setup: &Self::Setup, i: usize) -> Self::Unit;
    fn work(&self, out: &Self::Unit) -> Work;
    /// Digests of everything a unit outputs.
    fn digests(&self, out: &Self::Unit) -> Vec<u64>;
    /// Unit `i`'s pinned digests, when the inputs are the default seed's.
    fn pinned(&self, i: usize) -> Option<&[u64]>;
    /// Workload-specific output checks of unit `i`; `deep` adds the
    /// expensive ones, run on the unit's first output only.
    fn check(
        &self,
        setup: &Self::Setup,
        i: usize,
        out: &Self::Unit,
        deep: bool,
    ) -> Result<(), String>;
    /// The traced per-layer split, including its own untraced baseline.
    fn traced(&self, setup: &Self::Setup) -> Trace;

    /// The checks a traced run's untraced baseline of unit `i` must pass:
    /// the workload's own, plus the pinned digests when there are some.
    fn check_baseline(
        &self,
        setup: &Self::Setup,
        i: usize,
        out: &Self::Unit,
    ) -> Result<(), String> {
        self.check(setup, i, out, false)?;
        match self.pinned(i) {
            Some(p) => expect_eq("baseline digests", self.digests(out).as_slice(), p),
            None => Ok(()),
        }
    }
}

/// Compare a unit's digests with the pinned ones, or with the unit's
/// first output in the run when nothing is pinned.
fn check_digests(
    pinned: Option<&[u64]>,
    first: &mut Option<Vec<u64>>,
    got: Vec<u64>,
) -> Result<(), String> {
    let want = match (pinned, first.as_ref()) {
        (Some(p), _) => p.to_vec(),
        (None, Some(f)) => f.clone(),
        (None, None) => {
            *first = Some(got);
            return Ok(());
        }
    };
    if got == want {
        Ok(())
    } else {
        Err(format!("digests {got:016x?} != expected {want:016x?}"))
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc`
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPUs the host offers this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The rayon pool size the library will use: `RAYON_NUM_THREADS` when
/// set to a positive integer, else the host CPU count (the shim's rule).
pub fn rayon_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(host_cpus)
}

/// A run's result: the check tally and named metrics with units.
#[derive(Debug)]
pub struct RunResult {
    pub checks: Checks,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines describing the run.
    pub log: Vec<String>,
}

/// Set up `reps` times, appending each time and split; returns the last
/// set-up.
fn setup_batch<W: Workload>(
    w: &W,
    reps: usize,
    times: &mut Vec<f64>,
    splits: &mut Vec<SetupSplit>,
) -> W::Setup {
    let mut last = None;
    for _ in 0..reps {
        let mut split = SetupSplit::default();
        let (s, t) = timed(|| w.setup(&mut split));
        times.push(t);
        splits.push(split);
        last = Some(s);
    }
    last.expect("at least one set-up")
}

/// "min / median / max over n" of a non-empty sample, for the log.
fn spread_line(v: &[f64], unit: &str) -> String {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    format!(
        "{:.5} / {:.5} / {:.5} {unit} over {}",
        s[0],
        median(&s),
        s[s.len() - 1],
        s.len()
    )
}

/// Untraced run: time the units round-robin for up to `seconds` (every
/// unit at least [`MIN_ROUNDS`] times), checking every output, with the
/// reference loop timed before the first unit and after each, and a
/// set-up timed after each unit.
///
/// Each unit sample is rescaled to the nominal host by the mean of the
/// reference loops just before and after it; `norm_wall_s` sums the
/// units' median rescaled samples. `setup_s` rescales the median set-up
/// by the median of all the run's reference loops. Raw seconds go to the
/// log.
pub fn run_untraced<W: Workload>(w: &W, seconds: f64) -> RunResult {
    let mut setup_times = Vec::new();
    let setup = setup_batch(w, SETUP_REPS, &mut setup_times, &mut Vec::new());

    let n = w.units();
    let mut checks = Checks::default();
    let mut first = vec![None; n];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut nominal: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut refs = vec![reference_loop()];
    let mut work = vec![Work::default(); n];
    let start = Instant::now();
    // Stop before a unit that would, at its median pace so far, end past
    // `seconds`: a run lasts about `seconds`, never one unit more.
    for k in 0.. {
        let i = k % n;
        if k >= MIN_ROUNDS * n && start.elapsed().as_secs_f64() + median(&times[i]) > seconds {
            break;
        }
        let (out, t) = timed(|| w.run_unit(&setup, i));
        refs.push(reference_loop());
        nominal[i].push(t * REF_NOMINAL_S / (0.5 * (refs[k] + refs[k + 1])));
        let verdict = w
            .check(&setup, i, &out, times[i].is_empty())
            .and_then(|()| check_digests(w.pinned(i), &mut first[i], w.digests(&out)));
        checks.record(&format!("unit {i} round {}", k / n), verdict);
        work[i] = w.work(&out);
        times[i].push(t);
        setup_batch(w, 1, &mut setup_times, &mut Vec::new());
    }

    let mut log: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "unit {i}: raw {}; nominal {}",
                spread_line(&times[i], "s"),
                spread_line(&nominal[i], "s")
            )
        })
        .collect();
    let ref_ms: Vec<f64> = refs.iter().map(|r| 1e3 * r).collect();
    log.push(format!("reference loop: {}", spread_line(&ref_ms, "ms")));
    log.push(format!("setup: {}", spread_line(&setup_times, "s")));

    let wall: f64 = nominal.iter().map(|t| median(t)).sum();
    let experiments: f64 = work.iter().map(|w| w.experiments).sum();
    let sim_hours: f64 = work.iter().map(|w| w.sim_hours).sum();
    let metrics = vec![
        (
            "setup_s",
            median(&setup_times) * REF_NOMINAL_S / median(&refs),
            "s",
        ),
        ("norm_wall_s", wall, "s"),
        ("norm_exp_per_s", experiments / wall, "1/s"),
        ("norm_sim_h_per_s", sim_hours / wall, "h/s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    RunResult {
        checks,
        metrics,
        log,
    }
}

/// Traced run: the set-up split (median of one batch) plus the
/// workload's traced decomposition; every [`PER_LAYER`] metric is filled.
pub fn run_traced<W: Workload>(w: &W) -> RunResult {
    let mut splits = Vec::new();
    let setup = setup_batch(w, SETUP_REPS, &mut Vec::new(), &mut splits);
    let mut trace = w.traced(&setup);
    let pick = |f: fn(&SetupSplit) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    trace
        .layers
        .set("netlist.implement_s", pick(|s| s.implement_s));
    trace.layers.set("inject.testbed_s", pick(|s| s.testbed_s));
    trace
        .layers
        .set("scrub.payload_build_s", pick(|s| s.payload_s));
    trace.layers.set("run.host_cpus", host_cpus() as f64);
    trace
        .layers
        .set("run.rayon_threads", rayon_threads() as f64);
    let refs: Vec<f64> = (0..9).map(|_| reference_loop()).collect();
    trace.layers.set("run.ref_loop_ms", 1e3 * median(&refs));

    let wall = trace.layers.get("trace.wall_s");
    let mut log = std::mem::take(&mut trace.log);
    for s in &trace.stages {
        let v = trace.layers.get(s);
        log.push(format!(
            "stage {s:<26} {v:>10.4} s  {:>5.1}%",
            100.0 * v / wall
        ));
    }
    let other = trace.layers.get("trace.other_s");
    log.push(format!(
        "stage {:<26} {other:>10.4} s  {:>5.1}%",
        "trace.other_s",
        100.0 * other / wall
    ));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, trace.layers.get(name), unit))
        .collect();
    RunResult {
        checks: trace.checks,
        metrics,
        log,
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.checks.failed == 0 && r.checks.attempted > 0,
        r.checks.attempted.max(1),
        r.checks.failed,
        metrics.join(", ")
    )
}

/// The commit the checkout was built from, read from `.git` in the
/// working directory when present (a plain source checkout has none).
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
