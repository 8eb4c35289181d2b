//! # cibola-scrub — on-orbit fault detection and correction (paper §II)
//!
//! The flight side of the paper: an Actel-class fault manager per board
//! continuously reads back the configuration of three Virtex FPGAs,
//! CRC-checks every frame against a codebook, interrupts the RAD6000 on
//! mismatch, fetches the golden frame from ECC-protected FLASH, partially
//! reconfigures the device *while the design keeps running*, and resets.
//! The cadence reproduces the paper's numbers: a full scan of three
//! XQVR1000-class devices every ≈180 ms.
//!
//! * [`crc`] — the frame CRC (CRC-32).
//! * [`ecc`] — Hamming SECDED (72,64) protecting FLASH.
//! * [`flash`] — the 16 MB ECC-protected configuration store.
//! * [`manager`] — codebook, scan, repair; masked frames for LUT-RAM/BRAM.
//! * [`payload`] — the 3-board × 3-FPGA SEM-E assembly with SOH logging.
//! * [`mission`] — the payload in the LEO upset environment: the mission
//!   kernel and the one round loop every mission flies.
//! * [`strategy`] — the [`MitigationStrategy`] seam that loop drives and
//!   the strategy zoo: the paper's [`LadderStrategy`], voted redundancy,
//!   intermodular and blind scrubbing, and the adaptive scrub-rate
//!   controller, flown by [`run_strategy_mission`].
//! * [`ensemble`] — parallel Monte-Carlo mission sweeps over seeds.

pub mod correlate;
pub mod crc;
pub mod ecc;
pub mod ensemble;
pub mod flash;
pub mod manager;
pub mod mission;
pub mod payload;
pub mod strategy;

pub use cibola_telemetry::{
    EscalationRung, LadderStats, PortFaultStats, Severity, SohDownlinkPolicy, Telemetry,
    TelemetryEvent,
};
pub use correlate::{CorrelationLedger, FaultOrigin};
pub use crc::{crc32, Crc32};
pub use ecc::{decode as ecc_decode, encode as ecc_encode, CodeWord, EccOutcome};
pub use ensemble::{run_ensemble, EnsembleConfig, EnsembleResult, EnsembleStats};
pub use flash::{EccStats, Flash, FlashError};
pub use manager::{
    dynamic_bits_for, masked_frames_for, CorruptFrame, CrcCodebook, DynamicBitMask, FaultManager,
    ScanReport,
};
pub use mission::{run_mission, run_mission_reference, MissionConfig, MissionKernel, MissionStats};
pub use payload::{
    soh_event_meta, FpgaHealth, Payload, ScrubOutcome, SohEvent, SohRecord, BOARDS, DEGRADE_AFTER,
    FPGAS_PER_BOARD, MAX_FRAME_ATTEMPTS, RETRY_BACKOFF, SOH_RECORD_BYTES,
};
pub use strategy::{
    make_strategy, run_strategy_mission, run_strategy_mission_reference, AdaptiveConfig,
    AdaptiveScrub, BlindScrub, IntermodularScrub, LadderStrategy, MitigationStrategy,
    StrategyMissionStats, StrategyStats, VotedRedundancy, WindowObservation, STRATEGY_NAMES,
};
