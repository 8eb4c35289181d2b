//! # cibola-telemetry — the flight-recorder layer
//!
//! The paper's system is operated entirely through its state-of-health
//! downlink: ground crews only ever see what the scrubber chooses to
//! report. This crate is that reporting path for the whole cibola stack,
//! built around one hard rule — **events are keyed on simulated mission
//! time, never wall-clock** — so a replay of the same seed produces a
//! byte-identical record.
//!
//! Pieces:
//!
//! * [`event`] — structured point events and sim-time spans with a stable
//!   JSONL encoding.
//! * [`sink`] — the cloneable [`Telemetry`] handle; disabled by default
//!   (one branch, zero allocations) so uninstrumented runs stay
//!   bit-identical.
//! * [`recorder`] — the event log and the post-mortem timelines a
//!   critical device event freezes out of it.
//! * [`metrics`] — lock-free-ish counters/gauges/fixed-bucket histograms
//!   with deterministic, JSON-serializable snapshots.
//! * [`downlink`] — the budgeted SOH encoder that sheds by severity and
//!   counts every event it drops.
//! * [`ladder`] — the shared [`EscalationRung`] enum and [`LadderStats`]
//!   counter block used by scrub, mission and ensemble statistics.
//! * [`port`] — `Copy`-able SelectMAP port-fault counters embeddable in
//!   `Device`.
//! * [`json`] — the hand-rolled writer, one-pass reader and validator (no
//!   external JSON crate in this environment).

pub mod downlink;
pub mod event;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod port;
pub mod recorder;
pub mod sink;
pub mod soh;

pub use downlink::{plan_downlink, DownlinkPlan, PassPlan, SohDownlinkPolicy};
pub use event::{known_event_required_fields, FieldValue, Severity, Subsystem, TelemetryEvent};
pub use json::{validate_json_line, FlatObject, JsonError, JsonObject, JsonStr, JsonToken};
pub use ladder::{EscalationRung, LadderStats};
pub use metrics::{
    HistogramSnapshot, MetricsRegistry, Snapshot, AVAILABILITY_BUCKETS, LATENCY_MS_BUCKETS,
    RETRIES_BUCKETS, THROUGHPUT_BUCKETS,
};
pub use port::PortFaultStats;
pub use recorder::PostMortem;
pub use sink::Telemetry;
pub use soh::{soh_meta_for, SohEventMeta, SOH_EVENT_META};
