//! The SEM-E payload assembly (paper §II, Figs. 1–3): three RCC boards of
//! three Virtex FPGAs each, a RAD6000-class supervisor, FLASH storage,
//! and one Actel-class fault manager per board.
//!
//! The scrub loop here is *fault-tolerant against its own machinery*: the
//! SelectMAP port can wedge or lie (SEFIs), the SRAM-resident CRC codebook
//! can be upset, and the FLASH golden can hold uncorrectable words. Every
//! repair is verified after the write, failures retry with backoff in
//! simulated time, and persistent failures climb an escalation ladder —
//! frame repair → re-scan verify → full reconfiguration → port power-cycle
//! → device marked degraded — so the mission degrades gracefully instead
//! of wedging.

use cibola_arch::{Bitstream, Device, Geometry, PortError, SimDuration, SimTime};
use cibola_telemetry::{
    EscalationRung, LadderStats, Severity, Subsystem, Telemetry, TelemetryEvent,
    LATENCY_MS_BUCKETS, RETRIES_BUCKETS, SOH_EVENT_META,
};

use crate::correlate::CorrelationLedger;
use crate::flash::{EccStats, Flash, FlashError};
use crate::manager::{masked_frames_for, CorruptFrame, CrcCodebook, FaultManager};

/// Boards in the flight payload.
pub const BOARDS: usize = 3;
/// FPGAs per board.
pub const FPGAS_PER_BOARD: usize = 3;

/// Write-then-verify attempts per frame before escalating past frame
/// repair.
pub const MAX_FRAME_ATTEMPTS: u32 = 3;
/// Base retry backoff in simulated time (1 ms); doubles each retry.
pub const RETRY_BACKOFF: SimDuration = SimDuration(1_000_000);
/// Consecutive failed scrub passes before a device is marked degraded and
/// taken out of the scrub rotation.
pub const DEGRADE_AFTER: u32 = 3;

/// Per-device fault-management health, tracked across scrub passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FpgaHealth {
    /// Scrub passes in a row that ended with the device still faulty.
    pub consecutive_failures: u32,
    /// The device has been taken out of the scrub rotation after
    /// exhausting the escalation ladder.
    pub degraded: bool,
}

/// One FPGA with its golden image, flash slot and fault manager codebook.
#[derive(Debug, Clone)]
pub struct LoadedFpga {
    pub name: String,
    pub device: Device,
    pub golden: Bitstream,
    pub flash_slot: usize,
    pub manager: FaultManager,
    pub health: FpgaHealth,
}

/// One RCC board: three FPGAs sharing an Actel controller.
#[derive(Debug, Clone, Default)]
pub struct RccBoard {
    pub fpgas: Vec<LoadedFpga>,
}

/// A state-of-health event, downlinked to the ground station.
///
/// Marked non-exhaustive: flight software grows new telemetry, and adding
/// a variant must not break downstream match arms.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SohEvent {
    /// CRC mismatch found at (frame index).
    FrameCorrupt { frame_index: usize },
    /// Frame repaired by partial reconfiguration; design reset.
    FrameRepaired { frame_index: usize },
    /// Device escalated to full reconfiguration.
    FullReconfig,
    /// FLASH ECC corrected bit errors while fetching golden data.
    FlashCorrected { words: usize },
    /// A configuration-port SEFI was observed (readback abort, corrupted
    /// readback unmasked by verify, or — if `wedged` — a dead port).
    PortSefi { wedged: bool },
    /// Verify-after-write found the frame still wrong; attempt counts the
    /// retry about to happen.
    RepairRetry { frame_index: usize, attempt: u32 },
    /// A repair write did not stick (silent drop, port lie, or codebook
    /// mismatch).
    VerifyFailed { frame_index: usize },
    /// The CRC codebook failed its self-check (SRAM upset).
    CodebookCorrupt,
    /// The codebook was rebuilt from the ECC-protected FLASH golden.
    CodebookRebuilt,
    /// A golden frame fetch hit an uncorrectable (double-bit) FLASH ECC
    /// error; the repair was skipped rather than written with bad data.
    GoldenFrameUncorrectable { frame_index: usize },
    /// A whole golden image fetch hit an uncorrectable FLASH ECC error.
    GoldenImageUncorrectable,
    /// The configuration port was power-cycled (simulated board-level
    /// recovery).
    PortReset,
    /// The device exhausted the escalation ladder and was marked degraded.
    DeviceDegraded,
    /// Frame-level majority vote: device readback, both shadow copies and
    /// the golden CRC all disagree (3-way tie) — the voter fell back to a
    /// FLASH golden fetch.
    VoterDisagreement { frame_index: usize },
    /// A frame was repaired from the 2-of-3 majority of device readback
    /// and the two shadow configuration copies, without touching FLASH.
    VotedRepair { frame_index: usize },
}

/// Encoded size of one SOH record on the wire: time + location + event +
/// payload, framed.
pub const SOH_RECORD_BYTES: usize = 16;

/// A timestamped SOH record.
#[derive(Debug, Clone, Copy)]
pub struct SohRecord {
    pub time_ns: u64,
    pub board: usize,
    pub fpga: usize,
    pub event: SohEvent,
}

/// Outcome of scrubbing one board once.
#[derive(Debug, Clone, Default)]
pub struct ScrubOutcome {
    pub duration: SimDuration,
    pub frames_repaired: usize,
    pub full_reconfigs: usize,
    /// Devices that were repaired or reconfigured (their outstanding
    /// upsets are resolved).
    pub devices_cleaned: Vec<usize>,
    /// Escalation-ladder bookkeeping for this pass (shared counter block —
    /// the same type rolls up into `MissionStats` and `EnsembleStats`).
    pub ladder: LadderStats,
}

/// The whole payload.
#[derive(Debug, Clone)]
pub struct Payload {
    pub boards: Vec<RccBoard>,
    pub flash: Flash,
    pub soh: Vec<SohRecord>,
    pub ecc_stats: EccStats,
    /// Flight-recorder sink; disabled by default, so an uninstrumented
    /// payload pays one branch per SOH push and allocates nothing.
    pub telemetry: Telemetry,
    /// Which live fault owns each observable symptom surface, so SOH
    /// telemetry mirrors carry the causing `upset_id`/`sefi_id`. Pure
    /// observability: maintained only while telemetry is enabled, never
    /// read by mission dynamics.
    pub correlation: CorrelationLedger,
}

impl Payload {
    /// An empty payload with the standard three boards.
    pub fn new() -> Self {
        Payload {
            boards: (0..BOARDS).map(|_| RccBoard::default()).collect(),
            flash: Flash::default(),
            soh: Vec::new(),
            ecc_stats: EccStats::default(),
            telemetry: Telemetry::disabled(),
            correlation: CorrelationLedger::default(),
        }
    }

    /// Attach a telemetry sink (builder style).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Load a design onto board `board`, next free FPGA position: store
    /// the bitstream in FLASH, build the CRC codebook (masking dynamic
    /// frames), configure the device. Returns (board, fpga) position.
    pub fn load_design(
        &mut self,
        board: usize,
        name: &str,
        geom: &Geometry,
        bitstream: &Bitstream,
    ) -> (usize, usize) {
        assert!(
            self.boards[board].fpgas.len() < FPGAS_PER_BOARD,
            "board {board} full"
        );
        let slot = self
            .flash
            .store(bitstream)
            .expect("flash capacity for configuration");
        let masked = masked_frames_for(bitstream);
        let codebook = CrcCodebook::new(bitstream, &masked);
        let mut device = Device::new(geom.clone());
        device.configure_full(bitstream);
        self.boards[board].fpgas.push(LoadedFpga {
            name: name.to_string(),
            device,
            golden: bitstream.clone(),
            flash_slot: slot,
            manager: FaultManager::new(codebook),
            health: FpgaHealth::default(),
        });
        (board, self.boards[board].fpgas.len() - 1)
    }

    /// All (board, fpga) positions.
    pub fn positions(&self) -> Vec<(usize, usize)> {
        self.boards
            .iter()
            .enumerate()
            .flat_map(|(b, bd)| (0..bd.fpgas.len()).map(move |f| (b, f)))
            .collect()
    }

    pub fn fpga(&self, board: usize, fpga: usize) -> &LoadedFpga {
        &self.boards[board].fpgas[fpga]
    }

    pub fn fpga_mut(&mut self, board: usize, fpga: usize) -> &mut LoadedFpga {
        &mut self.boards[board].fpgas[fpga]
    }

    /// Record one state-of-health event (and its telemetry mirror).
    pub(crate) fn push_soh(&mut self, board: usize, fpga: usize, at: SimTime, event: SohEvent) {
        let correlation = &self.correlation;
        self.telemetry.emit_with(|| {
            let (name, severity, rung) = soh_event_meta(&event);
            let mut ev = TelemetryEvent::point(Subsystem::Scrub, severity, name, at.as_nanos())
                .with_device(board, fpga);
            if let Some(rung) = rung {
                ev = ev.with_str("rung", rung.name());
            }
            // Frame-keyed symptoms trace to the upset sitting in that
            // frame; absent one (a port lie fabricating a mismatch), the
            // latest port SEFI is the best available explanation.
            let frame_cause = |ev: TelemetryEvent, frame_index: usize| {
                if let Some(id) = correlation.frame_origin(board, fpga, frame_index) {
                    ev.with_u64("upset_id", id)
                } else if let Some(id) = correlation.port_origin(board, fpga) {
                    ev.with_u64("sefi_id", id)
                } else {
                    ev
                }
            };
            match event {
                SohEvent::FrameCorrupt { frame_index }
                | SohEvent::FrameRepaired { frame_index }
                | SohEvent::VerifyFailed { frame_index }
                | SohEvent::GoldenFrameUncorrectable { frame_index }
                | SohEvent::VoterDisagreement { frame_index }
                | SohEvent::VotedRepair { frame_index } => {
                    ev = frame_cause(ev.with_u64("frame", frame_index as u64), frame_index);
                }
                SohEvent::RepairRetry {
                    frame_index,
                    attempt,
                } => {
                    ev = frame_cause(
                        ev.with_u64("frame", frame_index as u64)
                            .with_u64("attempt", attempt as u64),
                        frame_index,
                    );
                }
                SohEvent::FlashCorrected { words } => {
                    ev = ev.with_u64("words", words as u64);
                }
                SohEvent::PortSefi { wedged } => {
                    ev = ev.with_bool("wedged", wedged);
                    if let Some(id) = correlation.port_origin(board, fpga) {
                        ev = ev.with_u64("sefi_id", id);
                    }
                }
                SohEvent::PortReset => {
                    if let Some(id) = correlation.port_origin(board, fpga) {
                        ev = ev.with_u64("sefi_id", id);
                    }
                }
                SohEvent::CodebookCorrupt | SohEvent::CodebookRebuilt => {
                    if let Some(id) = correlation.codebook_origin(board, fpga) {
                        ev = ev.with_u64("sefi_id", id);
                    }
                }
                SohEvent::FullReconfig
                | SohEvent::DeviceDegraded
                | SohEvent::GoldenImageUncorrectable => {
                    if let Some(origin) = correlation.device_origin(board, fpga) {
                        ev = ev.with_u64(origin.field_key(), origin.id());
                    }
                }
            }
            ev
        });
        // The rebuilt codebook no longer carries the SEFI's poison; the
        // clear runs after the mirror above so the rebuild event itself
        // still names the SEFI it recovered from.
        if self.telemetry.is_enabled() {
            if let SohEvent::CodebookRebuilt = event {
                self.correlation.clear_codebook(board, fpga);
            }
        }
        self.telemetry.inc(soh_event_meta(&event).0, 1);
        self.soh.push(SohRecord {
            time_ns: at.as_nanos(),
            board,
            fpga,
            event,
        });
    }

    /// The scan-cycle duration of a board's fault manager — the paper's
    /// "each configuration is read every 180 ms" for three XQVR1000s.
    pub fn board_scan_cycle(&self, board: usize) -> SimDuration {
        self.boards[board]
            .fpgas
            .iter()
            .map(|f| f.manager.scan_cost(&f.device))
            .sum()
    }

    /// Scrub one board once at simulated time `now`: self-check the
    /// codebook, scan each FPGA, repair each corrupt frame from FLASH with
    /// verify-after-write, and climb the escalation ladder when repairs
    /// do not stick. `dirty` hints which FPGAs might have bitstream
    /// changes — clean devices are charged scan time without a simulated
    /// readback (their scan provably finds nothing).
    pub fn scrub_board(&mut self, board: usize, now: SimTime, dirty: &[bool]) -> ScrubOutcome {
        self.scrub_board_with(board, now, dirty, |p, b, fi, frame, now, out| {
            p.repair_from_golden(b, fi, frame, now, out).is_some()
        })
    }

    /// [`scrub_board`](Self::scrub_board) with `repair` as rung 1.
    ///
    /// `repair(payload, board, fpga, frame, now, out)` is the ladder's only
    /// parameter: it rewrites one corrupt frame, accounts for it in `out`
    /// and the SOH log, and returns whether the frame now matches the
    /// codebook.
    pub(crate) fn scrub_board_with<F>(
        &mut self,
        board: usize,
        now: SimTime,
        dirty: &[bool],
        mut repair: F,
    ) -> ScrubOutcome
    where
        F: FnMut(&mut Payload, usize, usize, &CorruptFrame, SimTime, &mut ScrubOutcome) -> bool,
    {
        let mut out = ScrubOutcome::default();
        for fi in 0..self.boards[board].fpgas.len() {
            if self.boards[board].fpgas[fi].health.degraded {
                // Out of the rotation: the mission flies on without it.
                continue;
            }
            let dirty_hint = dirty.get(fi).copied().unwrap_or(true);
            self.scrub_fpga(board, fi, now, dirty_hint, &mut out, &mut repair);
        }
        out
    }

    /// One device's pass through the hardened scrub pipeline.
    fn scrub_fpga<F>(
        &mut self,
        board: usize,
        fi: usize,
        now: SimTime,
        dirty: bool,
        out: &mut ScrubOutcome,
        repair: &mut F,
    ) where
        F: FnMut(&mut Payload, usize, usize, &CorruptFrame, SimTime, &mut ScrubOutcome) -> bool,
    {
        // Rung 0 — trust the codebook only after it proves itself. The
        // self-check runs in Actel hardware alongside the scan, so it
        // costs no extra simulated time; a rebuild costs a FLASH fetch.
        if !self.boards[board].fpgas[fi].manager.codebook.self_check() {
            self.push_soh(board, fi, now + out.duration, SohEvent::CodebookCorrupt);
            if !self.rebuild_codebook(board, fi, now, out) {
                // No trustworthy codebook and no trustworthy golden: a
                // failed pass. The degrade counter bounds how long we
                // keep trying.
                self.note_failed_pass(board, fi, now, out);
                return;
            }
        }

        // A port left wedged by a SEFI between passes: power-cycle first.
        if self.boards[board].fpgas[fi].device.is_port_wedged() {
            self.reset_port(board, fi, now, out);
        }

        // Fast path: provably-clean device, charged scan time only. A
        // device with injected-but-unconsumed port faults is *not* clean
        // for this purpose — scanning it drains the fault queue.
        let skip_scan = !dirty
            && self.boards[board].fpgas[fi].device.is_programmed()
            && self.boards[board].fpgas[fi].device.pending_port_faults() == 0;
        if skip_scan {
            let f = &self.boards[board].fpgas[fi];
            out.duration += f.manager.scan_cost(&f.device);
            self.boards[board].fpgas[fi].health.consecutive_failures = 0;
            return;
        }

        // Rung 1 — scan. A wedged port gets one power-cycle + rescan.
        let mut report = {
            let f = &mut self.boards[board].fpgas[fi];
            f.manager.scan(&mut f.device)
        };
        out.duration += report.duration;
        if report.aborted_frames > 0 {
            out.ladder.sefis_observed += report.aborted_frames;
            self.push_soh(
                board,
                fi,
                now + out.duration,
                SohEvent::PortSefi { wedged: false },
            );
        }
        if report.wedged {
            out.ladder.sefis_observed += 1;
            self.push_soh(
                board,
                fi,
                now + out.duration,
                SohEvent::PortSefi { wedged: true },
            );
            self.reset_port(board, fi, now, out);
            report = {
                let f = &mut self.boards[board].fpgas[fi];
                f.manager.scan(&mut f.device)
            };
            out.duration += report.duration;
            if report.wedged {
                // Dead twice in one pass: give up until the next round.
                out.ladder.sefis_observed += 1;
                self.push_soh(
                    board,
                    fi,
                    now + out.duration,
                    SohEvent::PortSefi { wedged: true },
                );
                self.note_failed_pass(board, fi, now, out);
                return;
            }
        }

        // Rung 3 direct — near-total mismatch means the device is
        // unprogrammed (configuration-FSM upset): full reconfiguration.
        if report.looks_unprogrammed() {
            if self.try_full_reconfig(board, fi, now, out) {
                out.devices_cleaned.push(fi);
                self.boards[board].fpgas[fi].health.consecutive_failures = 0;
            } else {
                self.note_failed_pass(board, fi, now, out);
            }
            return;
        }

        if report.corrupt.is_empty() {
            self.boards[board].fpgas[fi].health.consecutive_failures = 0;
            return;
        }

        // Rung 1 proper — each corrupt frame goes to the repair source.
        let mut failed_frames = 0usize;
        for cf in &report.corrupt {
            self.push_soh(
                board,
                fi,
                now + out.duration,
                SohEvent::FrameCorrupt {
                    frame_index: cf.frame_index,
                },
            );
            if !repair(self, board, fi, cf, now, out) {
                failed_frames += 1;
            }
        }
        // "…and then resets the system" (one reset after repairs).
        self.boards[board].fpgas[fi].device.reset();

        if failed_frames == 0 {
            out.devices_cleaned.push(fi);
            self.boards[board].fpgas[fi].health.consecutive_failures = 0;
            return;
        }

        // Rung 2 — re-scan verify: transient port lies (corrupted
        // readback) can fabricate "failed" repairs; trust a clean rescan.
        let recheck = {
            let f = &mut self.boards[board].fpgas[fi];
            f.manager.scan(&mut f.device)
        };
        out.duration += recheck.duration;
        self.observe_rung_latency(EscalationRung::RescanVerify, recheck.duration);
        if !recheck.wedged
            && recheck.aborted_frames == 0
            && !recheck.looks_unprogrammed()
            && recheck.corrupt.is_empty()
        {
            out.devices_cleaned.push(fi);
            self.boards[board].fpgas[fi].health.consecutive_failures = 0;
            return;
        }

        // Rung 3 — full reconfiguration from FLASH.
        if self.try_full_reconfig(board, fi, now, out) {
            out.devices_cleaned.push(fi);
            self.boards[board].fpgas[fi].health.consecutive_failures = 0;
            return;
        }

        // Rung 4 — board-level port power-cycle (flushes any lingering
        // port faults), then one more full reconfiguration.
        self.reset_port(board, fi, now, out);
        if self.try_full_reconfig(board, fi, now, out) {
            out.devices_cleaned.push(fi);
            self.boards[board].fpgas[fi].health.consecutive_failures = 0;
            return;
        }

        // Rung 5 — the whole ladder failed this pass.
        self.note_failed_pass(board, fi, now, out);
    }

    /// Rung 1 from FLASH: fetch one corrupt frame's golden bytes and write
    /// them with verify-after-write. An uncorrectable golden frame is
    /// reported and skipped, never written; a write that never verifies
    /// escalates the frame. Returns the bytes written when the repair
    /// verified.
    pub(crate) fn repair_from_golden(
        &mut self,
        board: usize,
        fi: usize,
        frame: &CorruptFrame,
        now: SimTime,
        out: &mut ScrubOutcome,
    ) -> Option<Vec<u8>> {
        let slot = self.boards[board].fpgas[fi].flash_slot;
        let mut stats = EccStats::default();
        let fetched = self.flash.read_frame(slot, frame.frame_index, &mut stats);
        self.merge_ecc(board, fi, now + out.duration, &stats);
        let golden = match fetched {
            Ok((bytes, fetch)) => {
                out.duration += fetch;
                bytes
            }
            Err(FlashError::Uncorrectable { .. }) => {
                // Never repair a frame with corrupt golden data: report
                // and skip — the frame stays outstanding.
                out.ladder.golden_uncorrectable += 1;
                self.push_soh(
                    board,
                    fi,
                    now + out.duration,
                    SohEvent::GoldenFrameUncorrectable {
                        frame_index: frame.frame_index,
                    },
                );
                return None;
            }
            Err(e) => panic!("golden frame fetch: {e}"),
        };
        if !self.repair_frame_verified(board, fi, frame.frame_index, frame.addr, &golden, now, out)
        {
            out.ladder.frames_escalated += 1;
            return None;
        }
        out.frames_repaired += 1;
        self.push_soh(
            board,
            fi,
            now + out.duration,
            SohEvent::FrameRepaired {
                frame_index: frame.frame_index,
            },
        );
        Some(golden)
    }

    /// Write `golden` to the frame and verify it with
    /// `FaultManager::verify_frame`, which records an exact match; retry
    /// with exponential backoff up to [`MAX_FRAME_ATTEMPTS`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn repair_frame_verified(
        &mut self,
        board: usize,
        fi: usize,
        frame_index: usize,
        addr: cibola_arch::FrameAddr,
        golden: &[u8],
        now: SimTime,
        out: &mut ScrubOutcome,
    ) -> bool {
        let dur_start = out.duration;
        for attempt in 0..MAX_FRAME_ATTEMPTS {
            if attempt > 0 {
                out.ladder.repair_retries += 1;
                self.push_soh(
                    board,
                    fi,
                    now + out.duration,
                    SohEvent::RepairRetry {
                        frame_index,
                        attempt,
                    },
                );
                // Exponential backoff in simulated time before retrying.
                out.duration += SimDuration::from_nanos(RETRY_BACKOFF.as_nanos() << (attempt - 1));
            }

            let (wres, wd) = self.boards[board].fpgas[fi]
                .device
                .try_partial_configure_frame(addr, golden);
            out.duration += wd;
            if wres.is_err() {
                // A wedge mid-repair: power-cycle and count the attempt.
                out.ladder.sefis_observed += 1;
                self.push_soh(
                    board,
                    fi,
                    now + out.duration,
                    SohEvent::PortSefi { wedged: true },
                );
                self.reset_port(board, fi, now, out);
                continue;
            }

            // Verify-after-write: the frame must read back with the
            // codebook's CRC before the repair counts.
            let (vres, vd) = {
                let f = &mut self.boards[board].fpgas[fi];
                f.manager.verify_frame(&mut f.device, frame_index, addr)
            };
            out.duration += vd;
            match vres {
                Ok(true) => {
                    if self.telemetry.is_enabled() {
                        let ms = (out.duration.as_nanos() - dur_start.as_nanos()) as f64 / 1e6;
                        self.telemetry
                            .observe("scrub.frame_repair_ms", LATENCY_MS_BUCKETS, ms);
                        self.telemetry.observe(
                            "scrub.repair_attempts",
                            RETRIES_BUCKETS,
                            attempt as f64,
                        );
                    }
                    return true;
                }
                Ok(false) | Err(PortError::Aborted) => {
                    out.ladder.verify_failures += 1;
                    self.push_soh(
                        board,
                        fi,
                        now + out.duration,
                        SohEvent::VerifyFailed { frame_index },
                    );
                }
                Err(PortError::Wedged) => {
                    out.ladder.sefis_observed += 1;
                    out.ladder.verify_failures += 1;
                    self.push_soh(
                        board,
                        fi,
                        now + out.duration,
                        SohEvent::VerifyFailed { frame_index },
                    );
                    self.reset_port(board, fi, now, out);
                }
            }
        }
        false
    }

    /// Rebuild the CRC codebook from the ECC-protected FLASH golden.
    /// Returns false if the golden image itself is unreadable.
    fn rebuild_codebook(
        &mut self,
        board: usize,
        fi: usize,
        now: SimTime,
        out: &mut ScrubOutcome,
    ) -> bool {
        let f = &mut self.boards[board].fpgas[fi];
        let mut stats = EccStats::default();
        let at = now + out.duration;
        match self.flash.read_bitstream(f.flash_slot, &mut stats) {
            Ok((image, fetch)) => {
                let masked = masked_frames_for(image);
                f.manager.codebook = CrcCodebook::new(image, &masked);
                self.merge_ecc(board, fi, at, &stats);
                out.duration += fetch;
                out.ladder.codebook_rebuilds += 1;
                self.observe_rung_latency(EscalationRung::CodebookRebuild, fetch);
                self.push_soh(board, fi, now + out.duration, SohEvent::CodebookRebuilt);
                true
            }
            Err(FlashError::Uncorrectable { .. }) => {
                self.merge_ecc(board, fi, now + out.duration, &stats);
                out.ladder.golden_uncorrectable += 1;
                self.push_soh(
                    board,
                    fi,
                    now + out.duration,
                    SohEvent::GoldenImageUncorrectable,
                );
                false
            }
            Err(e) => panic!("codebook rebuild: {e}"),
        }
    }

    /// Power-cycle one device's configuration port and log it.
    pub(crate) fn reset_port(
        &mut self,
        board: usize,
        fi: usize,
        now: SimTime,
        out: &mut ScrubOutcome,
    ) {
        let d = self.boards[board].fpgas[fi].device.port_reset();
        out.duration += d;
        out.ladder.port_resets += 1;
        self.observe_rung_latency(EscalationRung::PortPowerCycle, d);
        self.push_soh(board, fi, now + out.duration, SohEvent::PortReset);
    }

    /// Record one rung's repair latency into its per-rung histogram.
    fn observe_rung_latency(&self, rung: EscalationRung, d: SimDuration) {
        if self.telemetry.is_enabled() {
            if let Some(metric) = rung.latency_metric() {
                self.telemetry
                    .observe(metric, LATENCY_MS_BUCKETS, d.as_millis_f64());
            }
        }
    }

    /// Full reconfiguration with wedge and FLASH-ECC handling. Returns
    /// true when the device came back programmed.
    pub(crate) fn try_full_reconfig(
        &mut self,
        board: usize,
        fi: usize,
        now: SimTime,
        out: &mut ScrubOutcome,
    ) -> bool {
        if self.boards[board].fpgas[fi].device.is_port_wedged() {
            self.reset_port(board, fi, now, out);
        }
        let f = &mut self.boards[board].fpgas[fi];
        let mut stats = EccStats::default();
        let at = now + out.duration;
        match self.flash.read_bitstream(f.flash_slot, &mut stats) {
            Ok((image, fetch)) => {
                let d = fetch + f.device.configure_full(image);
                self.merge_ecc(board, fi, at, &stats);
                out.duration += d;
                out.full_reconfigs += 1;
                self.observe_rung_latency(EscalationRung::FullReconfig, d);
                self.push_soh(board, fi, now + out.duration, SohEvent::FullReconfig);
                true
            }
            Err(FlashError::Uncorrectable { .. }) => {
                self.merge_ecc(board, fi, now + out.duration, &stats);
                out.ladder.golden_uncorrectable += 1;
                self.push_soh(
                    board,
                    fi,
                    now + out.duration,
                    SohEvent::GoldenImageUncorrectable,
                );
                false
            }
            Err(e) => panic!("golden image fetch: {e}"),
        }
    }

    /// Count a pass that left the device faulty; degrade after
    /// [`DEGRADE_AFTER`] so the mission cannot livelock on an
    /// unrecoverable device.
    pub(crate) fn note_failed_pass(
        &mut self,
        board: usize,
        fi: usize,
        now: SimTime,
        out: &mut ScrubOutcome,
    ) {
        let h = &mut self.boards[board].fpgas[fi].health;
        h.consecutive_failures += 1;
        if h.consecutive_failures >= DEGRADE_AFTER {
            h.degraded = true;
            out.ladder.devices_degraded += 1;
            self.push_soh(board, fi, now + out.duration, SohEvent::DeviceDegraded);
        }
    }

    /// Full reconfiguration of one device from its FLASH image: the only
    /// operation that restores half-latches. Used on escalation and for
    /// periodic refresh. Power-cycles the port first if a SEFI wedged it.
    pub fn full_reconfig(&mut self, board: usize, fpga: usize, now: SimTime) -> SimDuration {
        let mut out = ScrubOutcome::default();
        if !self.try_full_reconfig(board, fpga, now, &mut out) {
            // Uncorrectable golden: the device stays unprogrammed; the
            // next scrub pass escalates (and eventually degrades).
        }
        // Fold bookkeeping from the helper into the payload-level log
        // only; callers get the elapsed time as before.
        out.duration
    }

    /// Fold a FLASH access's ECC statistics into the payload log, with
    /// any correction stamped at `at`: the fetch's place in the pass,
    /// `now + out.duration`, like every other rung event.
    pub(crate) fn merge_ecc(&mut self, board: usize, fpga: usize, at: SimTime, stats: &EccStats) {
        self.ecc_stats.words_read += stats.words_read;
        self.ecc_stats.corrected += stats.corrected;
        self.ecc_stats.uncorrectable += stats.uncorrectable;
        if stats.corrected > 0 {
            self.push_soh(
                board,
                fpga,
                at,
                SohEvent::FlashCorrected {
                    words: stats.corrected,
                },
            );
        }
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::new()
    }
}

/// Index of an SOH event's metadata row in the shared
/// [`SOH_EVENT_META`] table — `SohEvent` declaration order, so the table
/// and the enum stay position-matched (a unit test pins every row).
fn soh_event_index(event: &SohEvent) -> usize {
    match event {
        SohEvent::FrameCorrupt { .. } => 0,
        SohEvent::FrameRepaired { .. } => 1,
        SohEvent::FullReconfig => 2,
        SohEvent::FlashCorrected { .. } => 3,
        SohEvent::PortSefi { .. } => 4,
        SohEvent::RepairRetry { .. } => 5,
        SohEvent::VerifyFailed { .. } => 6,
        SohEvent::CodebookCorrupt => 7,
        SohEvent::CodebookRebuilt => 8,
        SohEvent::GoldenFrameUncorrectable { .. } => 9,
        SohEvent::GoldenImageUncorrectable => 10,
        SohEvent::PortReset => 11,
        SohEvent::DeviceDegraded => 12,
        SohEvent::VoterDisagreement { .. } => 13,
        SohEvent::VotedRepair { .. } => 14,
    }
}

/// The stable telemetry mapping of an SOH event: wire name, downlink
/// severity, and the escalation rung it belongs to (if any). Backed by
/// the one shared [`SOH_EVENT_META`] table that the downlink planner,
/// `telemetry_lint`, and the forensics severity rollup also read — so
/// the JSONL schema cannot drift between producers and consumers.
pub fn soh_event_meta(event: &SohEvent) -> (&'static str, Severity, Option<EscalationRung>) {
    let m = &SOH_EVENT_META[soh_event_index(event)];
    (m.name, m.severity, m.rung)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soh_meta_rows_position_match_the_enum() {
        let variants = [
            SohEvent::FrameCorrupt { frame_index: 0 },
            SohEvent::FrameRepaired { frame_index: 0 },
            SohEvent::FullReconfig,
            SohEvent::FlashCorrected { words: 1 },
            SohEvent::PortSefi { wedged: false },
            SohEvent::RepairRetry {
                frame_index: 0,
                attempt: 1,
            },
            SohEvent::VerifyFailed { frame_index: 0 },
            SohEvent::CodebookCorrupt,
            SohEvent::CodebookRebuilt,
            SohEvent::GoldenFrameUncorrectable { frame_index: 0 },
            SohEvent::GoldenImageUncorrectable,
            SohEvent::PortReset,
            SohEvent::DeviceDegraded,
            SohEvent::VoterDisagreement { frame_index: 0 },
            SohEvent::VotedRepair { frame_index: 0 },
        ];
        assert_eq!(variants.len(), SOH_EVENT_META.len());
        for (i, v) in variants.iter().enumerate() {
            assert_eq!(soh_event_index(v), i, "row order drifted at {i}");
        }
        assert_eq!(
            soh_event_meta(&SohEvent::DeviceDegraded).1,
            Severity::Critical
        );
        assert_eq!(soh_event_meta(&SohEvent::PortReset).0, "scrub.port_reset");
    }
}
