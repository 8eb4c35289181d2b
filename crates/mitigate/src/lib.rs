//! # cibola-mitigate — SEU design mitigation (paper §III)
//!
//! Two mitigation families the paper develops or applies:
//!
//! * **RadDRC** ([`raddrc`]): automatic half-latch removal — constant-tied
//!   control pins are rewired to LUT-ROM constants or an external constant
//!   pin, eliminating the hidden state that readback cannot see and
//!   partial reconfiguration cannot repair. The paper measured mitigated
//!   designs ≈100× more failure-resistant under proton beam.
//! * **TMR** ([`tmr`](mod@tmr)): full and *selective* triple modular redundancy,
//!   the latter targeted at the sensitive cross-section identified by the
//!   SEU simulator's correlation data.

//!
//! This crate also owns the **mitigation-strategy zoo** (the
//! configuration-scrub policies the flight literature surveys), the
//! adaptive scrub-rate controller, and the strategy mission drivers:
//!
//! * [`strategy`] — the [`MitigationStrategy`] trait plus the readback
//!   ladder, majority-voted redundancy, intermodular (shared-controller)
//!   and blind (write-only) scrubbers.
//! * [`adaptive`] — the auto-tuning scrub-rate controller wrapping any
//!   per-round-homogeneous strategy.
//! * [`strategy_mission`] — event-driven and reference mission drivers
//!   over the shared `cibola_scrub::MissionKernel`, bit-identical per
//!   strategy and seed.

pub mod adaptive;
pub mod raddrc;
pub mod strategy;
pub mod strategy_mission;
pub mod tmr;

pub use adaptive::{AdaptiveConfig, AdaptiveScrub};
pub use raddrc::{remove_half_latches, ConstSource, RadDrcReport};
pub use strategy::{
    make_strategy, BlindScrub, IntermodularScrub, LadderStrategy, MitigationStrategy,
    StrategyStats, VotedRedundancy, WindowObservation, STRATEGY_NAMES,
};
pub use strategy_mission::{
    run_strategy_mission, run_strategy_mission_reference, StrategyMissionStats,
};
pub use tmr::{selective_tmr, tmr, TmrReport};
