//! The adaptive scrub-rate controller.
//!
//! A fixed scan cadence wastes bandwidth (and SOH downlink budget) in
//! quiet orbit segments and under-serves flare storms. This controller
//! retunes the scrub decimation factor `k` — service every `k`-th scan
//! round — once per mission window, against the observed upset rate:
//!
//! * the per-window upset rate feeds an EWMA, with the *input clamped*
//!   before accumulation (anti-windup: a SEFI/flare burst can saturate
//!   one window's observation, but it cannot wind the filter so far up
//!   that the controller stays wedged at the floor for the rest of the
//!   mission — recovery is bounded by the EWMA decay alone);
//! * the target `k` is `target_upsets_per_scrub / ewma`, clamped to
//!   `[k_floor, k_ceiling]`;
//! * a factor-2 hysteresis deadband around the current `k` suppresses
//!   retune chatter;
//! * rises are gradual (at most doubling per window) so one quiet window
//!   cannot collapse the scan rate; drops are immediate, because
//!   under-scrubbing during a storm costs availability;
//! * optional SOH-budget pressure: when a window pushes more SOH records
//!   than the configured budget, the target period doubles — scan less,
//!   report less.
//!
//! Every retune decision is emitted as a `strategy.retune` telemetry
//! event (old and new `k`, window index, observed upsets) plus a
//! `strategy.scrub_every` gauge, so ground crews can replay the
//! controller's reasoning from the flight record.

use cibola_arch::SimTime;
use cibola_telemetry::{Severity, Subsystem, Telemetry, TelemetryEvent};

use super::{MitigationStrategy, StrategyStats, WindowObservation};
use crate::payload::{Payload, ScrubOutcome};

/// Tuning for [`AdaptiveScrub`].
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Rounds per retune window.
    pub window_rounds: u64,
    /// Decimation clamp: service at least every `k_ceiling`-th round and
    /// at most every `k_floor`-th.
    pub k_floor: u64,
    pub k_ceiling: u64,
    /// Upsets the controller is willing to leave outstanding per service
    /// interval — the aggressiveness knob.
    pub target_upsets_per_scrub: f64,
    /// EWMA smoothing factor for the observed upset rate (per round).
    pub ewma_alpha: f64,
    /// Anti-windup input clamp on the per-round upset rate fed to the
    /// EWMA. One round can see at most `devices` upsets anyway; clamping
    /// at ~1 bounds how far a burst can wind the filter.
    pub ewma_rate_clamp: f64,
    /// SOH-budget pressure: when a window pushes more SOH records than
    /// this, the target period doubles. `None` disables the term.
    pub soh_window_budget: Option<usize>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window_rounds: 256,
            k_floor: 1,
            k_ceiling: 64,
            target_upsets_per_scrub: 0.05,
            ewma_alpha: 0.3,
            ewma_rate_clamp: 1.0,
            soh_window_budget: None,
        }
    }
}

/// An adaptive scrub-rate controller wrapping an inner strategy: the
/// inner strategy defines *what* a service does, this wrapper decides
/// *how often* — every `k`-th round, with `k` retuned per window.
///
/// The wrapper assumes the inner strategy's idle cost is per-round
/// homogeneous (true of [`LadderStrategy`](super::LadderStrategy),
/// [`VotedRedundancy`](super::VotedRedundancy) and
/// [`BlindScrub`](super::BlindScrub); *not* of the round-robin
/// [`IntermodularScrub`](super::IntermodularScrub)).
#[derive(Debug)]
pub struct AdaptiveScrub<S: MitigationStrategy> {
    inner: S,
    cfg: AdaptiveConfig,
    /// Current decimation factor: service every `k`-th round.
    k: u64,
    ewma: f64,
    stats: StrategyStats,
}

impl<S: MitigationStrategy> AdaptiveScrub<S> {
    pub fn new(inner: S, cfg: AdaptiveConfig) -> Self {
        assert!(cfg.window_rounds > 0, "window must be non-empty");
        assert!(
            1 <= cfg.k_floor && cfg.k_floor <= cfg.k_ceiling,
            "need 1 <= k_floor <= k_ceiling"
        );
        assert!(
            0.0 < cfg.ewma_alpha && cfg.ewma_alpha <= 1.0,
            "alpha in (0, 1]"
        );
        let k = cfg.k_floor;
        AdaptiveScrub {
            inner,
            cfg,
            k,
            ewma: 0.0,
            stats: StrategyStats {
                final_scrub_every: k,
                min_scrub_every: k,
                max_scrub_every: k,
                ..StrategyStats::default()
            },
        }
    }

    /// The current decimation factor (service every `k`-th round).
    pub fn scrub_every(&self) -> u64 {
        self.k
    }

    /// Count of multiples of `k` in `[start, start + rounds)` — the
    /// service rounds inside an idle stretch.
    fn services_in(&self, start: u64, rounds: u64) -> u64 {
        let b = start + rounds;
        b.div_ceil(self.k) - start.div_ceil(self.k)
    }
}

impl<S: MitigationStrategy> MitigationStrategy for AdaptiveScrub<S> {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn prepare(&mut self, payload: &mut Payload) {
        self.inner.prepare(payload);
    }

    fn uses_codebook(&self) -> bool {
        self.inner.uses_codebook()
    }

    fn uses_readback(&self) -> bool {
        self.inner.uses_readback()
    }

    fn window_rounds(&self) -> Option<u64> {
        Some(self.cfg.window_rounds)
    }

    fn on_window(&mut self, obs: &WindowObservation, tele: &Telemetry) {
        // Anti-windup: clamp the *input*, not the accumulated state.
        let raw = (obs.upsets as f64 / obs.rounds as f64).min(self.cfg.ewma_rate_clamp);
        self.ewma = self.cfg.ewma_alpha * raw + (1.0 - self.cfg.ewma_alpha) * self.ewma;

        let mut target = if self.ewma < 1e-12 {
            // No observed upsets at all: coast at the ceiling. The guard
            // is explicit so a perfectly quiet mission cannot divide by
            // zero.
            self.cfg.k_ceiling as f64
        } else {
            self.cfg.target_upsets_per_scrub / self.ewma
        };
        if let Some(budget) = self.cfg.soh_window_budget {
            if obs.soh_events > budget {
                target *= 2.0;
            }
        }
        let target_k = (target.floor() as u64).clamp(self.cfg.k_floor, self.cfg.k_ceiling);

        // Factor-2 hysteresis deadband: no retune while the target stays
        // within [k/2, 2k] — except that a target pinned at the ceiling
        // is always worth approaching. Drops are immediate
        // (under-scrubbing a storm costs availability); rises double at
        // most once per window.
        let k_old = self.k;
        if target_k * 2 < k_old {
            self.k = target_k;
        } else if target_k > k_old * 2 || (target_k == self.cfg.k_ceiling && target_k > k_old) {
            self.k = k_old.saturating_mul(2).min(target_k);
        }

        if self.k != k_old {
            self.stats.retunes += 1;
            self.stats.min_scrub_every = self.stats.min_scrub_every.min(self.k);
            self.stats.max_scrub_every = self.stats.max_scrub_every.max(self.k);
            let (k_new, upsets, window) = (self.k, obs.upsets as u64, obs.index);
            tele.emit_with(|| {
                TelemetryEvent::point(
                    Subsystem::Mission,
                    Severity::Info,
                    "strategy.retune",
                    (obs.index + 1) * obs.rounds * obs.round_ns,
                )
                .with_u64("k_old", k_old)
                .with_u64("k_new", k_new)
                .with_u64("window", window)
                .with_u64("upsets", upsets)
            });
        }
        tele.gauge("strategy.scrub_every", self.k as f64);
        self.stats.final_scrub_every = self.k;
    }

    fn next_scrub_round(&self, slot: usize, r: u64) -> u64 {
        // Next multiple of k at or after r, then the inner schedule.
        let m = r + (self.k - r % self.k) % self.k;
        self.inner.next_scrub_round(slot, m)
    }

    fn scrub_board(
        &mut self,
        payload: &mut Payload,
        board: usize,
        slot: usize,
        now: SimTime,
        dirty: &[bool],
    ) -> ScrubOutcome {
        self.inner.scrub_board(payload, board, slot, now, dirty)
    }

    fn charge_idle_rounds(&mut self, payload: &Payload, start_round: u64, rounds: u64) -> u64 {
        // Only the service rounds inside the stretch cost bandwidth; the
        // inner strategy's idle charge is per-round homogeneous.
        let services = self.services_in(start_round, rounds);
        self.inner
            .charge_idle_rounds(payload, start_round, services)
    }

    fn stats(&self) -> StrategyStats {
        let mut s = self.stats;
        let inner = self.inner.stats();
        s.voted_repairs = inner.voted_repairs;
        s.voter_disagreements = inner.voter_disagreements;
        s.voter_fallbacks = inner.voter_fallbacks;
        s.shadow_refreshes = inner.shadow_refreshes;
        s.shadow_upsets = inner.shadow_upsets;
        s.blind_writes = inner.blind_writes;
        s.queue_wait_rounds = inner.queue_wait_rounds;
        s
    }
}
