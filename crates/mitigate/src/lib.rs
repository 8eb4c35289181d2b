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
//! configuration-scrub policies the flight literature surveys) and the
//! adaptive scrub-rate controller:
//!
//! * [`strategy`] — majority-voted redundancy, intermodular
//!   (shared-controller) and blind (write-only) scrubbers, and the
//!   [`run_strategy_mission`] / [`run_strategy_mission_reference`] entry
//!   points that fly any member event-driven or every round.
//! * [`adaptive`] — the auto-tuning scrub-rate controller wrapping any
//!   per-round-homogeneous strategy.
//!
//! The [`MitigationStrategy`] trait, the paper's [`LadderStrategy`],
//! [`StrategyStats`], [`WindowObservation`], [`StrategyMissionStats`] and
//! the one mission round loop they plug into live in `cibola-scrub`,
//! because `run_mission` flies the ladder through that loop; they are
//! re-exported here under their old names.

pub mod adaptive;
pub mod raddrc;
pub mod strategy;
pub mod tmr;

pub use adaptive::{AdaptiveConfig, AdaptiveScrub};
pub use raddrc::{remove_half_latches, ConstSource, RadDrcReport};
pub use strategy::{
    make_strategy, run_strategy_mission, run_strategy_mission_reference, BlindScrub,
    IntermodularScrub, LadderStrategy, MitigationStrategy, StrategyMissionStats, StrategyStats,
    VotedRedundancy, WindowObservation, STRATEGY_NAMES,
};
pub use tmr::{selective_tmr, tmr, TmrReport};
