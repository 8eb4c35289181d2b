//! # cibola — dynamic reconfiguration for management of radiation-induced faults in FPGAs
//!
//! A from-scratch Rust reproduction of *Gokhale, Graham, Wirthlin, Johnson
//! & Rollins, "Dynamic Reconfiguration for Management of Radiation-Induced
//! Faults in FPGAs"* (2004) — the methodology behind the Cibola Flight
//! Experiment's space-based reconfigurable radio.
//!
//! The paper's hardware is simulated; everything above it is implemented
//! for real:
//!
//! | Layer | Crate | Paper section |
//! |---|---|---|
//! | Virtex-class FPGA model (frames, SelectMAP, half-latches) | [`arch`] | §II–IV |
//! | Netlist IR, test designs, mini CAD flow | [`netlist`] | §III-A |
//! | LEO orbit + proton-beam environments | [`radiation`] | §I, §III-B |
//! | CRC scrubbing, ECC FLASH, 9-FPGA payload, missions, strategy zoo | [`scrub`] | §II |
//! | The SEU simulator: campaigns, persistence, validation | [`inject`] | §III |
//! | BIST for permanent faults | [`bist`] | §II-B |
//! | RadDRC half-latch removal, (selective) TMR | [`mitigate`] | §III |
//! | Flight-recorder telemetry, metrics, SOH downlink budget | [`telemetry`] | §II-A |
//!
//! ## Quickstart
//!
//! ```
//! use cibola::prelude::*;
//!
//! // Build one of the paper's designs, implement it, and fault-inject it.
//! let nl = cibola::designs::PaperDesign::CounterAdder { width: 4 }.netlist();
//! let imp = implement(&nl, &Geometry::tiny()).unwrap();
//! let tb = Testbed::new(&imp, 42, 64);
//! let cfg = CampaignConfig {
//!     observe_cycles: 24,
//!     classify_persistence: false,
//!     ..Default::default()
//! };
//! let result = run_campaign_wide(&tb, &cfg);
//! assert!(result.sensitivity() > 0.0);
//! ```

pub use cibola_arch as arch;
pub use cibola_bist as bist;
pub use cibola_inject as inject;
pub use cibola_mitigate as mitigate;
pub use cibola_netlist as netlist;
pub use cibola_radiation as radiation;
pub use cibola_scrub as scrub;
pub use cibola_telemetry as telemetry;

pub mod designs;

/// The names most sessions need, in one import.
pub mod prelude {
    pub use cibola_arch::{
        Bitstream, ConfigMemory, Device, FaultSite, FrameAddr, Geometry, HlSite, ReadbackOptions,
        SimDuration, SimTime, Tile,
    };
    pub use cibola_bist::{coverage_campaign, BistSuite, WireTest};
    pub use cibola_inject::{
        beam_validation, capture_trace, run_campaign, run_campaign_wide, BeamRunConfig,
        BitSelection, CampaignConfig, CampaignResult, Testbed, TraceSchedule,
    };
    pub use cibola_mitigate::{remove_half_latches, selective_tmr, tmr, ConstSource};
    pub use cibola_netlist::{
        implement, Implementation, Netlist, NetlistBuilder, NetlistSim, Stimulus,
    };
    pub use cibola_radiation::{BeamConfig, OrbitEnvironment, OrbitRates, ProtonBeam, TargetMix};
    pub use cibola_scrub::{
        run_ensemble, run_mission, EnsembleConfig, FaultManager, MissionConfig, Payload,
    };
    pub use cibola_telemetry::{
        EscalationRung, LadderStats, Severity, SohDownlinkPolicy, Telemetry, TelemetryEvent,
    };
}
