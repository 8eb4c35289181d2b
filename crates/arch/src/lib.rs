//! # cibola-arch — a Virtex-class SRAM FPGA model for SEU research
//!
//! This crate is the hardware substrate for the `cibola` reproduction of
//! *Gokhale, Graham, Wirthlin, Johnson & Rollins, "Dynamic Reconfiguration
//! for Management of Radiation-Induced Faults in FPGAs"* (2004). It models
//! the parts of a Xilinx Virtex XQVR1000 that the paper's methodology
//! touches:
//!
//! * **Frame-organised configuration memory** ([`frames`]) with a total
//!   semantic bit map ([`bits`]) — every configuration bit decodes to a
//!   LUT truth-table bit, routing-multiplexer select, flip-flop control,
//!   PIP, IOB binding, BRAM bit, or padding.
//! * **A SelectMAP-style configuration port** ([`selectmap`]): full
//!   configuration (with the start-up sequence), frame-wise partial
//!   reconfiguration, and frame-wise readback *while the design runs*,
//!   including the paper's readback hazards for LUT-RAM and BRAM.
//! * **An execution engine** ([`Device::step`]) that runs whatever the
//!   configuration memory currently says — including corrupted
//!   configurations, the paper's key trick for hardware-speed fault
//!   injection.
//! * **Hidden state** ([`halflatch`]): half-latches that readback cannot
//!   see and partial reconfiguration cannot repair, plus the configuration
//!   state machine whose upset "unprograms" the device.
//! * **Permanent faults** ([`permfault`]): stuck-at overlays that survive
//!   reconfiguration, targeted by the BIST designs of paper §II-B.
//!
//! ```
//! use cibola_arch::{Device, Geometry};
//!
//! let mut dev = Device::new(Geometry::tiny());
//! assert!(!dev.is_programmed());
//! let blank = dev.config().clone();
//! dev.configure_full(&blank);
//! assert!(dev.is_programmed());
//! ```

pub mod analysis;
pub mod bits;
pub mod bitvec;
mod compile;
pub mod delta;
pub mod device;
mod engine;
pub mod engine_wide;
#[cfg(test)]
mod fixtures;
pub mod frames;
pub mod geometry;
pub mod halflatch;
pub mod permfault;
pub mod selectmap;
pub mod time;

pub use bitvec::BitVec;
pub use cibola_telemetry::PortFaultStats;
pub use delta::{DeltaClass, DeltaMap, LaneUpset};
pub use device::{Bitstream, Device, NetworkStats};
pub use engine_wide::{same_topology, WideEngine, WideTarget, LANES};
pub use frames::{BitLocus, BlockType, ConfigMemory, Edge, FrameAddr, FrameStamp, IobEntry};
pub use geometry::{Dir, Geometry, Tile};
pub use halflatch::HlSite;
pub use permfault::FaultSite;
pub use selectmap::{PortError, PortTiming, ReadFault, ReadbackOptions, WriteFault};
pub use time::{SimDuration, SimTime};
