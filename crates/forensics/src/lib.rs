//! # cibola-forensics — mission root-cause engine
//!
//! Consumes a mission telemetry stream (a JSONL dump from
//! `--telemetry`, or the in-memory event vector of a recording run) and
//! reconstructs every injected fault's lifecycle through the stable
//! `upset_id`/`sefi_id` correlation keys the kernel threads from
//! injection to resolution. From the lifecycles it derives a
//! deterministic [`MissionForensics`] report: MTTD/MTTR distributions
//! per cause class and repair mechanism, availability-loss attribution,
//! escalation-ladder flow accounting, and mission-health anomaly
//! detection — then cross-checks every re-derivable `mission.end`
//! counter for exact equality ([`MissionForensics::reconcile`]).
//!
//! The analyzer is strict: dangling correlation ids, duplicate origins,
//! and upsets left open past the mission-end roll-up are decode errors,
//! because the emitter contract guarantees none of them can happen. Every
//! consumer checks that contract in one streaming pass: [`read_jsonl`]
//! decodes a line at a time and [`ForensicsFold`] folds the events.

pub mod anomaly;
pub mod fold;
pub mod lifecycle;
pub mod raw;
pub mod report;

pub use anomaly::Anomaly;
pub use fold::ForensicsFold;
pub use lifecycle::{FaultLifecycle, Outcome};
pub use raw::{from_events, parse_jsonl, read_jsonl, ForensicsError, IdSpace, RawEvent, RawValue};
pub use report::{CauseStats, LatencyDist, MissionForensics};
