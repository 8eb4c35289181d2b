//! The mitigation-strategy seam: what a mission round asks of its scrub
//! policy.
//!
//! A [`MitigationStrategy`] owns the per-round decide/repair policy:
//! *when* each board is serviced and *what* the service does. Everything
//! else — the upset and SEFI environment, the outstanding-fault ledger,
//! availability integration, mission-end roll-up — stays in
//! [`MissionKernel`](crate::MissionKernel), and one round loop
//! ([`fly_mission`](crate::fly_mission)) drives every strategy through
//! it, so every strategy is measured by exactly the same accounting.
//!
//! The paper's readback scrub with the five-rung escalation ladder,
//! [`LadderStrategy`], lives here because [`run_mission`](crate::run_mission)
//! flies it. The rest of the zoo (voted redundancy, intermodular and blind
//! scrubbing, the adaptive controller) lives in `cibola-mitigate`.

use cibola_arch::SimTime;
use cibola_telemetry::Telemetry;

use crate::mission::MissionStats;
use crate::payload::{Payload, ScrubOutcome};

/// What a strategy observed over one retune window — deltas of the
/// mission ledger between consecutive window boundaries.
#[derive(Debug, Clone, Copy)]
pub struct WindowObservation {
    /// Zero-based window index.
    pub index: u64,
    /// Rounds per window.
    pub rounds: u64,
    /// Upsets that landed during the window (all devices).
    pub upsets: usize,
    /// SOH records pushed during the window — the downlink-pressure
    /// signal an adaptive controller can trade scan rate against.
    pub soh_events: usize,
    /// Scan-round duration in nanoseconds.
    pub round_ns: u64,
}

/// Counters a strategy keeps about its own machinery, over and above the
/// shared [`MissionStats`] ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyStats {
    /// Frames repaired from the 2-of-3 shadow majority (no FLASH access).
    pub voted_repairs: u64,
    /// 3-way disagreements (the 2-of-3 majority missed the codebook CRC,
    /// or the re-read failed) that forced a FLASH golden fallback.
    pub voter_disagreements: u64,
    /// FLASH golden fallback repairs performed after a disagreement.
    pub voter_fallbacks: u64,
    /// Shadow-copy frames rewritten to heal divergence.
    pub shadow_refreshes: u64,
    /// Shadow-copy frames upset by the chaos hook (two per firing: the
    /// same bit in both copies).
    pub shadow_upsets: u64,
    /// Frames written blind (without readback), including the analytic
    /// fast path — the write-wear figure of merit.
    pub blind_writes: u64,
    /// Rounds of queueing delay dirty boards spent waiting for the shared
    /// controller's rotation.
    pub queue_wait_rounds: u64,
    /// Retune decisions taken by an adaptive controller.
    pub retunes: u64,
    /// Scrub decimation factor (scrub every k-th round) at mission end,
    /// and the extremes it visited. Fixed-rate strategies report 1/1/1.
    pub final_scrub_every: u64,
    pub min_scrub_every: u64,
    pub max_scrub_every: u64,
}

impl Default for StrategyStats {
    fn default() -> Self {
        StrategyStats {
            voted_repairs: 0,
            voter_disagreements: 0,
            voter_fallbacks: 0,
            shadow_refreshes: 0,
            shadow_upsets: 0,
            blind_writes: 0,
            queue_wait_rounds: 0,
            retunes: 0,
            final_scrub_every: 1,
            min_scrub_every: 1,
            max_scrub_every: 1,
        }
    }
}

impl StrategyStats {
    /// Every counter as a named scalar, in declaration order — mirrors
    /// [`MissionStats::summary_fields`] so the conformance corpus can
    /// digest strategy missions the same way.
    pub fn summary_fields(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("voted_repairs", self.voted_repairs as f64),
            ("voter_disagreements", self.voter_disagreements as f64),
            ("voter_fallbacks", self.voter_fallbacks as f64),
            ("shadow_refreshes", self.shadow_refreshes as f64),
            ("shadow_upsets", self.shadow_upsets as f64),
            ("blind_writes", self.blind_writes as f64),
            ("queue_wait_rounds", self.queue_wait_rounds as f64),
            ("retunes", self.retunes as f64),
            ("final_scrub_every", self.final_scrub_every as f64),
            ("min_scrub_every", self.min_scrub_every as f64),
            ("max_scrub_every", self.max_scrub_every as f64),
        ]
    }
}

/// A strategy mission's combined result: the shared mission ledger, the
/// strategy's private counters, and the scrub bandwidth actually spent.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyMissionStats {
    pub mission: MissionStats,
    pub strategy: StrategyStats,
    /// Simulated nanoseconds of scrub-controller busy time (scans,
    /// repairs, blind writes, idle fast-path charges) across the mission.
    pub scrub_busy_ns: u64,
}

impl StrategyMissionStats {
    /// Every field as a named scalar — the mission ledger followed by the
    /// strategy counters — for conformance-corpus digesting and reports.
    pub fn summary_fields(&self) -> Vec<(&'static str, f64)> {
        let mut fields = self.mission.summary_fields();
        fields.extend(self.strategy.summary_fields());
        fields.push(("scrub_busy_ns", self.scrub_busy_ns as f64));
        fields
    }
}

/// A configuration-mitigation strategy: the per-round decide/repair
/// policy [`fly_mission`](crate::fly_mission) plugs into the shared
/// [`MissionKernel`](crate::MissionKernel).
///
/// # Skip-safety contract
///
/// Flown event-driven, the loop jumps over rounds where no device *needs*
/// scrub (per the kernel's needs-scrub predicate, parameterised by
/// [`uses_codebook`](MitigationStrategy::uses_codebook) and
/// [`uses_readback`](MitigationStrategy::uses_readback)) and no strategy
/// scheduling, environment event or retune-window boundary falls. For the
/// event-driven and every-round modes to stay bit-identical,
/// [`scrub_board`](MitigationStrategy::scrub_board) on an all-clean board
/// must change *nothing observable* except simulated time, and
/// [`charge_idle_rounds`](MitigationStrategy::charge_idle_rounds) must
/// charge exactly what those per-round calls would have.
pub trait MitigationStrategy {
    /// Stable strategy name (corpus case IDs, reports).
    fn name(&self) -> &'static str;

    /// One-time setup against the loaded payload (e.g. cloning shadow
    /// configuration copies). Called once before the first round.
    fn prepare(&mut self, _payload: &mut Payload) {}

    /// Does the per-pass repair action run the CRC-codebook self-check
    /// (rung 0)? Strategies that never consult the codebook return false
    /// so a corrupt codebook does not force rounds active.
    fn uses_codebook(&self) -> bool {
        true
    }

    /// Does the repair action perform configuration readback? Write-only
    /// strategies return false: latched injected *read* faults can then
    /// never be consumed and must not force rounds active.
    fn uses_readback(&self) -> bool {
        true
    }

    /// `Some(w)` to receive an [`on_window`](MitigationStrategy::on_window)
    /// callback every `w` rounds.
    fn window_rounds(&self) -> Option<u64> {
        None
    }

    /// Retune hook at each window boundary.
    fn on_window(&mut self, _obs: &WindowObservation, _tele: &Telemetry) {}

    /// The next round index ≥ `r` at which board slot `slot` (an index
    /// into the kernel's live-board list) is scheduled for service.
    fn next_scrub_round(&self, _slot: usize, r: u64) -> u64 {
        r
    }

    /// Service one board at simulated time `now`. `dirty` hints which of
    /// the board's devices might hold bitstream changes.
    fn scrub_board(
        &mut self,
        payload: &mut Payload,
        board: usize,
        slot: usize,
        now: SimTime,
        dirty: &[bool],
    ) -> ScrubOutcome;

    /// Charge the scrub-bandwidth cost of `rounds` all-clean rounds
    /// starting at `start_round` in bulk, returning busy nanoseconds —
    /// exactly what per-round [`scrub_board`](MitigationStrategy::scrub_board)
    /// calls on clean boards would have cost.
    fn charge_idle_rounds(&mut self, payload: &Payload, start_round: u64, rounds: u64) -> u64;

    /// Strategy-private counters at mission end.
    fn stats(&self) -> StrategyStats {
        StrategyStats::default()
    }
}

/// Per-round fast-path scan cost of one board: what
/// [`Payload::scrub_board`] charges when every device is clean.
pub fn board_idle_scan_ns(payload: &Payload, b: usize) -> u64 {
    payload.boards[b]
        .fpgas
        .iter()
        .filter(|f| !f.health.degraded)
        .map(|f| f.manager.scan_cost(&f.device).as_nanos())
        .sum()
}

/// Fast-path scan cost of every live board (they scan concurrently, but
/// busy bandwidth adds across controllers).
pub fn all_boards_idle_scan_ns(payload: &Payload) -> u64 {
    (0..payload.boards.len())
        .map(|b| board_idle_scan_ns(payload, b))
        .sum()
}

/// The paper's strategy: readback scrubbing with the five-rung escalation
/// ladder, delegating straight to [`Payload::scrub_board`].
/// [`run_mission`](crate::run_mission) is this strategy flown
/// event-driven, and [`run_mission_reference`](crate::run_mission_reference)
/// is it flown every round.
#[derive(Debug, Default)]
pub struct LadderStrategy;

impl MitigationStrategy for LadderStrategy {
    fn name(&self) -> &'static str {
        "ladder"
    }

    fn scrub_board(
        &mut self,
        payload: &mut Payload,
        board: usize,
        _slot: usize,
        now: SimTime,
        dirty: &[bool],
    ) -> ScrubOutcome {
        payload.scrub_board(board, now, dirty)
    }

    fn charge_idle_rounds(&mut self, payload: &Payload, _start_round: u64, rounds: u64) -> u64 {
        rounds * all_boards_idle_scan_ns(payload)
    }
}
