//! The mitigation-strategy zoo: what a mission round asks of its scrub
//! policy, and the policies that answer (paper §II plus the
//! configuration-scrub variants surveyed in the related flight
//! literature).
//!
//! A [`MitigationStrategy`] owns the per-round decide/repair policy:
//! *when* each board is serviced and *what* the service does. Everything
//! else — the upset and SEFI environment, the outstanding-fault ledger,
//! availability integration, mission-end roll-up — stays in
//! [`MissionKernel`](crate::MissionKernel), and one round loop drives
//! every strategy through it, so every strategy is measured by exactly
//! the same accounting:
//!
//! * [`LadderStrategy`] — the paper's readback scrub with the five-rung
//!   escalation ladder; [`run_mission`](crate::run_mission) flies it.
//! * [`VotedRedundancy`] — frame-level majority vote over three
//!   configuration copies (device readback plus two shadow copies held by
//!   the supervisor). A corrupt frame is repaired from the 2-of-3
//!   majority without touching FLASH; a 3-way disagreement falls back to
//!   the ECC-protected golden. The vote is only rung 1's repair source:
//!   the voter runs the same ladder as [`Payload::scrub_board`].
//! * [`IntermodularScrub`] — one shared scrub controller round-robins its
//!   scan/repair bandwidth across the boards, so each board is serviced
//!   every `n` rounds and repairs queue behind the rotation.
//! * [`BlindScrub`] — periodic rewrite of every unmasked frame from the
//!   golden image with no readback at all: no detection latency from
//!   scanning, but every round costs write bandwidth and wear, and masked
//!   frames can never be touched (the read-modify-write hazard).
//! * [`AdaptiveScrub`] — the auto-tuning scrub-rate controller wrapping
//!   any per-round-homogeneous strategy.
//!
//! [`run_strategy_mission`] and [`run_strategy_mission_reference`] fly
//! any member, event-driven or every round.

use std::collections::{HashMap, HashSet};

use cibola_arch::{Bitstream, PortError, ReadbackOptions, SimDuration, SimTime};
use cibola_telemetry::{Severity, Subsystem, Telemetry, TelemetryEvent};

use crate::crc::crc32;
use crate::flash::{EccStats, FlashError};
use crate::manager::CorruptFrame;
use crate::mission::{fly_mission, MissionConfig, MissionStats};
use crate::payload::{LoadedFpga, Payload, ScrubOutcome, SohEvent};

mod adaptive;

pub use adaptive::{AdaptiveConfig, AdaptiveScrub};

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
/// policy the mission round loop plugs into the shared
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
fn board_idle_scan_ns(payload: &Payload, b: usize) -> u64 {
    payload.boards[b]
        .fpgas
        .iter()
        .filter(|f| !f.health.degraded)
        .map(|f| f.manager.scan_cost(&f.device).as_nanos())
        .sum()
}

/// Fast-path scan cost of every live board (they scan concurrently, but
/// busy bandwidth adds across controllers).
fn all_boards_idle_scan_ns(payload: &Payload) -> u64 {
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

// ---------------------------------------------------------------------
// 1. Frame-level majority-vote configuration redundancy
// ---------------------------------------------------------------------

/// Frame-level majority vote over three configuration copies: the device
/// readback plus two shadow copies the supervisor holds in memory
/// (Giordano et al. style configuration redundancy). A frame flagged
/// corrupt by the CRC scan is re-read and voted bitwise 2-of-3 against
/// the shadows; when the majority matches the codebook CRC the repair is
/// written from the majority — no FLASH fetch, no golden wear. Only a
/// 3-way disagreement (the majority misses the codebook CRC, or the
/// re-read fails) falls back to the ECC-protected FLASH golden. Shadows
/// that differ from the bytes written are healed. The vote replaces only
/// rung 1's repair source; every other rung is the ladder's, as in
/// [`Payload::scrub_board`].
#[derive(Debug, Default)]
pub struct VotedRedundancy {
    shadows: HashMap<(usize, usize), [Bitstream; 2]>,
    /// Chaos hook: flip the same bit of both shadow copies before every
    /// n-th vote, so the disagreement/fallback path is exercised
    /// deterministically.
    pub shadow_upset_every: Option<u64>,
    votes_cast: u64,
    stats: StrategyStats,
}

impl VotedRedundancy {
    /// A voter with the shadow-chaos hook armed: flip the same bit of both
    /// shadow copies before every `every`-th vote.
    pub fn with_shadow_chaos(every: u64) -> Self {
        VotedRedundancy {
            shadow_upset_every: Some(every),
            ..Default::default()
        }
    }

    /// Bitwise 2-of-3 majority of three equal-length frames.
    fn majority(a: &[u8], b: &[u8], c: &[u8]) -> Vec<u8> {
        a.iter()
            .zip(b)
            .zip(c)
            .map(|((&x, &y), &z)| (x & y) | (x & z) | (y & z))
            .collect()
    }

    /// Rung 1 for one corrupt frame, the `repair` argument of
    /// [`Payload::scrub_board_with`]: re-read the device copy, vote it
    /// bitwise against the two shadows and write the majority when it
    /// matches the codebook CRC; otherwise fall back to the FLASH golden.
    /// Shadows that differ from the bytes written are healed.
    fn repair_frame(
        &mut self,
        p: &mut Payload,
        b: usize,
        fi: usize,
        cf: &CorruptFrame,
        now: SimTime,
        out: &mut ScrubOutcome,
    ) -> bool {
        // Chaos hook: shadows take SEUs too. The same bit flips in both
        // copies, so they outvote the device there, the majority misses
        // the codebook CRC and the vote falls back to FLASH.
        self.votes_cast += 1;
        if let Some(n) = self.shadow_upset_every {
            if n > 0 && self.votes_cast % n == 0 {
                let seed = (self.votes_cast as usize).wrapping_mul(7919);
                for sh in self.shadows.get_mut(&(b, fi)).expect("shadow") {
                    let mut frame = sh.read_frame(cf.addr);
                    let bit = seed % (frame.len() * 8);
                    frame[bit / 8] ^= 1 << (bit % 8);
                    sh.write_frame(cf.addr, &frame);
                    self.stats.shadow_upsets += 1;
                }
            }
        }

        // Re-read the device copy for the vote.
        let frame_overhead = p.fpga(b, fi).manager.frame_overhead;
        let (rres, rd) = p
            .fpga_mut(b, fi)
            .device
            .try_readback_frame(cf.addr, ReadbackOptions::default());
        out.duration += rd;
        let voted = match rres {
            Ok(device_copy) => {
                // Shadow fetches are supervisor memory reads; charge the
                // fault manager's per-frame processing overhead.
                let sh = &self.shadows[&(b, fi)];
                let s0 = sh[0].read_frame(cf.addr);
                let s1 = sh[1].read_frame(cf.addr);
                out.duration += frame_overhead + frame_overhead;
                let maj = Self::majority(&device_copy, &s0, &s1);
                (crc32(&maj) == p.fpga(b, fi).manager.codebook.crc(cf.frame_index)).then_some(maj)
            }
            Err(e) => {
                let wedged = e == PortError::Wedged;
                out.ladder.sefis_observed += 1;
                p.push_soh(b, fi, now + out.duration, SohEvent::PortSefi { wedged });
                if wedged {
                    p.reset_port(b, fi, now, out);
                }
                None
            }
        };

        let written = match voted {
            Some(maj) => {
                if !p.repair_frame_verified(b, fi, cf.frame_index, cf.addr, &maj, now, out) {
                    out.ladder.frames_escalated += 1;
                    return false;
                }
                out.frames_repaired += 1;
                self.stats.voted_repairs += 1;
                p.push_soh(
                    b,
                    fi,
                    now + out.duration,
                    SohEvent::VotedRepair {
                        frame_index: cf.frame_index,
                    },
                );
                maj
            }
            None => {
                // 3-way disagreement (or the vote could not even be
                // taken): fall back to the ECC-protected golden.
                self.stats.voter_disagreements += 1;
                p.push_soh(
                    b,
                    fi,
                    now + out.duration,
                    SohEvent::VoterDisagreement {
                        frame_index: cf.frame_index,
                    },
                );
                let Some(golden) = p.repair_from_golden(b, fi, cf, now, out) else {
                    return false;
                };
                self.stats.voter_fallbacks += 1;
                golden
            }
        };
        // Heal every shadow that lost to the bytes written, so the next
        // vote is 3-for-3.
        for copy in self.shadows.get_mut(&(b, fi)).expect("shadow") {
            if copy.read_frame(cf.addr) != written {
                copy.write_frame(cf.addr, &written);
                out.duration += frame_overhead;
                self.stats.shadow_refreshes += 1;
            }
        }
        true
    }
}

impl MitigationStrategy for VotedRedundancy {
    fn name(&self) -> &'static str {
        "voted"
    }

    fn prepare(&mut self, payload: &mut Payload) {
        for (b, f) in payload.positions() {
            let golden = payload.fpga(b, f).golden.clone();
            self.shadows.insert((b, f), [golden.clone(), golden]);
        }
    }

    fn scrub_board(
        &mut self,
        payload: &mut Payload,
        board: usize,
        _slot: usize,
        now: SimTime,
        dirty: &[bool],
    ) -> ScrubOutcome {
        payload.scrub_board_with(board, now, dirty, |p, b, fi, cf, now, out| {
            self.repair_frame(p, b, fi, cf, now, out)
        })
    }

    fn charge_idle_rounds(&mut self, payload: &Payload, _start_round: u64, rounds: u64) -> u64 {
        rounds * all_boards_idle_scan_ns(payload)
    }

    fn stats(&self) -> StrategyStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// 2. Intermodular scrubbing (one shared controller, round-robin)
// ---------------------------------------------------------------------

/// One scrub controller shared by every board (Belle II ARICH style):
/// in round `r` only the board at rotation slot `r mod n` is scanned and
/// repaired, so each board is serviced every `n` rounds and a fault on a
/// board that just missed its turn queues for up to `n − 1` rounds. The
/// contention shows up as queueing delay in the detection-latency (MTTR)
/// figures, with `n − 1` extra rounds of wait charged per dirty service.
#[derive(Debug, Default)]
pub struct IntermodularScrub {
    nlive: usize,
    stats: StrategyStats,
}

impl MitigationStrategy for IntermodularScrub {
    fn name(&self) -> &'static str {
        "intermodular"
    }

    fn prepare(&mut self, payload: &mut Payload) {
        self.nlive = payload
            .boards
            .iter()
            .filter(|b| !b.fpgas.is_empty())
            .count();
    }

    fn next_scrub_round(&self, slot: usize, r: u64) -> u64 {
        let n = self.nlive.max(1) as u64;
        let s = slot as u64 % n;
        // Next round ≥ r with round ≡ slot (mod n).
        r + (n + s - r % n) % n
    }

    fn scrub_board(
        &mut self,
        payload: &mut Payload,
        board: usize,
        _slot: usize,
        now: SimTime,
        dirty: &[bool],
    ) -> ScrubOutcome {
        // The board waited out the rest of the rotation since its last
        // service; a board with a dirty device in service spent that
        // window with a latent fault. A degraded device keeps its hint but
        // is never scrubbed again, so it makes no board wait.
        let fpgas = &payload.boards[board].fpgas;
        let waited = dirty
            .iter()
            .zip(fpgas)
            .any(|(&d, f)| d && !f.health.degraded);
        if self.nlive > 1 && waited {
            let wait = (self.nlive - 1) as u64;
            self.stats.queue_wait_rounds += wait;
            payload.telemetry.emit_with(|| {
                TelemetryEvent::point(
                    Subsystem::Mission,
                    Severity::Debug,
                    "strategy.queue_wait",
                    now.as_nanos(),
                )
                .with_u64("rounds", wait)
            });
        }
        payload.scrub_board(board, now, dirty)
    }

    fn charge_idle_rounds(&mut self, payload: &Payload, start_round: u64, rounds: u64) -> u64 {
        // Exactly one board is serviced per round: full rotations charge
        // every live board once, the partial tail walks the rotation from
        // the start phase.
        let live: Vec<usize> = (0..payload.boards.len())
            .filter(|&b| !payload.boards[b].fpgas.is_empty())
            .collect();
        let n = live.len().max(1) as u64;
        let costs: Vec<u64> = live
            .iter()
            .map(|&b| board_idle_scan_ns(payload, b))
            .collect();
        let total: u64 = costs.iter().sum();
        let full = rounds / n;
        let mut busy = full * total;
        for i in 0..(rounds % n) {
            busy += costs[((start_round + i) % n) as usize];
        }
        busy
    }

    fn stats(&self) -> StrategyStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// 3. Blind scrubbing (periodic rewrite, no readback)
// ---------------------------------------------------------------------

/// Blind scrubbing: periodically rewrite every unmasked frame from the
/// golden image without ever reading the device back. There is no
/// detection step to be lied to (readback SEFIs are irrelevant), but
/// every round costs full write bandwidth and configuration-memory write
/// wear, and masked frames — LUT-RAM and BRAM whose contents the design
/// legitimately changes — can never be written (the read-modify-write
/// hazard), so upsets there are invisible *and* unrepairable until a
/// periodic refresh. An unprogrammed device is still detected via the
/// externally visible DONE pin and recovered by full reconfiguration.
///
/// The frame mask is design-time knowledge (which frames hold dynamic
/// state), not the SRAM CRC table, so consulting it does not put the
/// codebook in the loop.
#[derive(Debug, Default)]
pub struct BlindScrub {
    stats: StrategyStats,
}

impl BlindScrub {
    /// Analytic cost and frame count of one blind rewrite of a device:
    /// one frame-write port operation per unmasked frame, from the
    /// unmasked totals the codebook keeps.
    fn device_write_cost(f: &LoadedFpga) -> (u64, u64) {
        let book = &f.manager.codebook;
        let t = f.device.port_timing;
        let ns = book.scanned_frames * t.op_overhead_ns + book.scanned_bytes * t.ns_per_byte;
        (ns, book.scanned_frames)
    }

    fn scrub_device(
        &mut self,
        p: &mut Payload,
        b: usize,
        fi: usize,
        now: SimTime,
        dirty: bool,
        out: &mut ScrubOutcome,
    ) {
        if p.fpga(b, fi).device.is_port_wedged() {
            p.reset_port(b, fi, now, out);
        }

        // DONE pin low: the configuration FSM was upset. Blind writes
        // cannot reprogram a device; full reconfiguration can.
        if !p.fpga(b, fi).device.is_programmed() {
            if p.try_full_reconfig(b, fi, now, out) {
                out.devices_cleaned.push(fi);
                p.fpga_mut(b, fi).health.consecutive_failures = 0;
            } else {
                p.note_failed_pass(b, fi, now, out);
            }
            return;
        }

        // Fast path: nothing latched, nothing dirty — the rewrite would
        // provably write back identical bytes, so charge its time and
        // wear analytically. This must mirror the kernel's write-only
        // skip predicate exactly.
        if !dirty && p.fpga(b, fi).device.pending_write_faults() == 0 {
            let (ns, frames) = Self::device_write_cost(p.fpga(b, fi));
            out.duration += SimDuration::from_nanos(ns);
            self.stats.blind_writes += frames;
            p.fpga_mut(b, fi).health.consecutive_failures = 0;
            return;
        }

        // Real rewrite: fetch the golden image once, write every
        // unmasked frame through the fault-aware port.
        let slot = p.fpga(b, fi).flash_slot;
        let mut stats = EccStats::default();
        let image = match p.flash.read_bitstream(slot, &mut stats) {
            Ok((image, fetch)) => {
                let image = image.clone();
                p.merge_ecc(b, fi, now + out.duration, &stats);
                out.duration += fetch;
                image
            }
            Err(FlashError::Uncorrectable { .. }) => {
                p.merge_ecc(b, fi, now + out.duration, &stats);
                out.ladder.golden_uncorrectable += 1;
                p.push_soh(
                    b,
                    fi,
                    now + out.duration,
                    SohEvent::GoldenImageUncorrectable,
                );
                p.note_failed_pass(b, fi, now, out);
                return;
            }
            Err(e) => panic!("golden image fetch: {e}"),
        };

        let addrs: Vec<_> = image.frame_addrs().collect();
        for (fidx, addr) in addrs.iter().enumerate() {
            if p.fpga(b, fi).manager.codebook.is_masked(fidx) {
                continue;
            }
            let data = image.read_frame(*addr);
            let (wres, wd) = p
                .fpga_mut(b, fi)
                .device
                .try_partial_configure_frame(*addr, &data);
            out.duration += wd;
            self.stats.blind_writes += 1;
            if matches!(wres, Err(PortError::Wedged)) {
                out.ladder.sefis_observed += 1;
                p.push_soh(
                    b,
                    fi,
                    now + out.duration,
                    SohEvent::PortSefi { wedged: true },
                );
                p.reset_port(b, fi, now, out);
                // The frame was not written; the next pass retries.
            }
        }

        // Oracle: did the rewrite actually land everywhere? Stands in for
        // "a blind scrubber's rewrite closes the corruption window when
        // the writes really happen" — a silently dropped write leaves the
        // frame corrupt and the window open until a later pass lands.
        let clean = {
            let f = p.fpga(b, fi);
            f.device.is_programmed()
                && f.device
                    .config()
                    .frame_addrs()
                    .enumerate()
                    .filter(|(i, _)| !f.manager.codebook.is_masked(*i))
                    .all(|(_, addr)| f.device.config().read_frame(addr) == image.read_frame(addr))
        };
        if clean {
            out.devices_cleaned.push(fi);
            p.fpga_mut(b, fi).health.consecutive_failures = 0;
        }
        // Not clean is *not* a failed pass: blind scrubbing has no
        // verification, so it cannot know — it just rewrites again next
        // round (the injected-fault queues guarantee convergence).
    }
}

impl MitigationStrategy for BlindScrub {
    fn name(&self) -> &'static str {
        "blind"
    }

    fn uses_codebook(&self) -> bool {
        false
    }

    fn uses_readback(&self) -> bool {
        false
    }

    fn scrub_board(
        &mut self,
        payload: &mut Payload,
        board: usize,
        _slot: usize,
        now: SimTime,
        dirty: &[bool],
    ) -> ScrubOutcome {
        let mut out = ScrubOutcome::default();
        for fi in 0..payload.boards[board].fpgas.len() {
            if payload.boards[board].fpgas[fi].health.degraded {
                continue;
            }
            let dirty_hint = dirty.get(fi).copied().unwrap_or(true);
            self.scrub_device(payload, board, fi, now, dirty_hint, &mut out);
        }
        out
    }

    fn charge_idle_rounds(&mut self, payload: &Payload, _start_round: u64, rounds: u64) -> u64 {
        let mut ns = 0u64;
        let mut frames = 0u64;
        for board in &payload.boards {
            for f in board.fpgas.iter().filter(|f| !f.health.degraded) {
                let (n, fr) = Self::device_write_cost(f);
                ns += n;
                frames += fr;
            }
        }
        self.stats.blind_writes += rounds * frames;
        rounds * ns
    }

    fn stats(&self) -> StrategyStats {
        self.stats
    }
}

// ---------------------------------------------------------------------
// Mission entry points and factory
// ---------------------------------------------------------------------

/// Header record naming the driving strategy, so a forensics pass over
/// the dump knows which zoo member produced it. It carries nothing
/// mode-specific, so both modes emit the identical line; plain
/// [`run_mission`](crate::run_mission) emits none.
fn announce(payload: &Payload, strategy: &dyn MitigationStrategy) {
    let name = strategy.name();
    payload.telemetry.emit_with(|| {
        TelemetryEvent::point(
            Subsystem::Mission,
            Severity::Info,
            "strategy.mission_begin",
            0,
        )
        .with_str("strategy", name)
    });
}

/// Fly `strategy` event-driven: the `strategy.mission_begin` header, then
/// the one mission round loop. Bit-identical to
/// [`run_strategy_mission_reference`] for every strategy and seed.
pub fn run_strategy_mission(
    payload: &mut Payload,
    cfg: &MissionConfig,
    sensitivity: &HashMap<(usize, usize), HashSet<usize>>,
    strategy: &mut dyn MitigationStrategy,
) -> StrategyMissionStats {
    announce(payload, strategy);
    fly_mission(payload, cfg, sensitivity, strategy, true)
}

/// Fly `strategy` every round: the ground truth for the differential
/// suite.
pub fn run_strategy_mission_reference(
    payload: &mut Payload,
    cfg: &MissionConfig,
    sensitivity: &HashMap<(usize, usize), HashSet<usize>>,
    strategy: &mut dyn MitigationStrategy,
) -> StrategyMissionStats {
    announce(payload, strategy);
    fly_mission(payload, cfg, sensitivity, strategy, false)
}

/// Names of every strategy in the zoo, reference first. The adaptive
/// controller wraps the ladder at its default tuning.
pub const STRATEGY_NAMES: [&str; 5] = ["ladder", "voted", "intermodular", "blind", "adaptive"];

/// Construct a strategy by its stable name (corpus case IDs, experiment
/// configs). Panics on an unknown name — callers pass constants.
pub fn make_strategy(name: &str) -> Box<dyn MitigationStrategy> {
    match name {
        "ladder" => Box::new(LadderStrategy),
        "voted" => Box::new(VotedRedundancy::default()),
        "intermodular" => Box::new(IntermodularScrub::default()),
        "blind" => Box::new(BlindScrub::default()),
        "adaptive" => Box::new(AdaptiveScrub::new(
            LadderStrategy,
            AdaptiveConfig::default(),
        )),
        other => panic!("unknown mitigation strategy {other:?}"),
    }
}
