//! Causal correlation between injected faults and downstream telemetry.
//!
//! Every upset and SEFI the environment lands gets a stable correlation
//! id at its origin event (`mission.upset` / `mission.sefi`), assigned in
//! landing order from the mission counters — so the same seed produces
//! the same ids no matter which kernel (event-driven or reference)
//! traverses the timeline. The [`CorrelationLedger`] then remembers, per
//! device, *which* live fault owns each observable symptom surface —
//! a corrupt configuration frame, a whole-device fault (unprogrammed
//! FSM), a lying or wedged port, a poisoned CRC codebook — so that when
//! the scrub pipeline later logs a symptom as a state-of-health event,
//! its telemetry mirror carries the id of the fault that caused it.
//!
//! The ledger is pure observability: it is only maintained while a
//! telemetry sink is attached, it never feeds back into mission
//! dynamics, and dropping it entirely leaves `MissionStats` bit-identical
//! (the conformance corpus pins exactly that).

use std::collections::HashMap;

/// The injected fault a telemetry event traces back to: a radiation
/// upset (keyed `upset_id`) or a fault-management SEFI (keyed `sefi_id`).
/// Ids are 1-based landing order within their own space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOrigin {
    Upset(u64),
    Sefi(u64),
}

impl FaultOrigin {
    /// The correlation id within the origin's id space.
    pub fn id(self) -> u64 {
        match self {
            FaultOrigin::Upset(id) | FaultOrigin::Sefi(id) => id,
        }
    }

    /// The JSONL field key carrying the id (`"upset_id"` / `"sefi_id"`).
    pub fn field_key(self) -> &'static str {
        match self {
            FaultOrigin::Upset(_) => "upset_id",
            FaultOrigin::Sefi(_) => "sefi_id",
        }
    }

    /// The lifecycle-close event name pair for this origin.
    pub fn resolved_event(self) -> &'static str {
        match self {
            FaultOrigin::Upset(_) => "mission.upset_resolved",
            FaultOrigin::Sefi(_) => "mission.sefi_resolved",
        }
    }

    /// The end-of-mission leak event name for this origin.
    pub fn leaked_event(self) -> &'static str {
        match self {
            FaultOrigin::Upset(_) => "mission.upset_leaked",
            FaultOrigin::Sefi(_) => "mission.sefi_leaked",
        }
    }
}

/// Per-device symptom-surface ownership: which live fault currently
/// explains each thing the scrub pipeline can observe. Lookups are by
/// key only, so `HashMap` iteration order never influences output.
#[derive(Debug, Clone, Default)]
pub struct CorrelationLedger {
    /// `(board, fpga, frame_index)` → the latest unmasked configuration
    /// upset sitting in that frame. Removed when its upset resolves.
    frame: HashMap<(usize, usize, usize), u64>,
    /// `(board, fpga)` → the whole-device fault (FSM upset or unprogram
    /// SEFI) currently holding the device unconfigured.
    device: HashMap<(usize, usize), FaultOrigin>,
    /// `(board, fpga)` → the latest port-class SEFI (readback corrupt /
    /// abort, silent write drop, wedge). Latest-wins and never cleared:
    /// latched port faults are consumed invisibly, so the most recent
    /// strike is the best available explanation for port symptoms.
    port: HashMap<(usize, usize), u64>,
    /// `(board, fpga)` → the codebook-upset SEFI poisoning the CRC
    /// codebook. Cleared when the codebook is rebuilt from FLASH.
    codebook: HashMap<(usize, usize), u64>,
}

impl CorrelationLedger {
    /// An unmasked configuration upset landed in `frame` of `(b, f)`.
    pub fn note_frame_upset(&mut self, b: usize, f: usize, frame: usize, id: u64) {
        self.frame.insert((b, f, frame), id);
    }

    /// A whole-device fault (FSM upset / unprogram SEFI) struck `(b, f)`.
    pub fn note_device_fault(&mut self, b: usize, f: usize, origin: FaultOrigin) {
        self.device.insert((b, f), origin);
    }

    /// A port-class SEFI struck `(b, f)`'s configuration port.
    pub fn note_port_sefi(&mut self, b: usize, f: usize, id: u64) {
        self.port.insert((b, f), id);
    }

    /// A codebook-upset SEFI poisoned `(b, f)`'s CRC codebook.
    pub fn note_codebook_sefi(&mut self, b: usize, f: usize, id: u64) {
        self.codebook.insert((b, f), id);
    }

    pub fn frame_origin(&self, b: usize, f: usize, frame: usize) -> Option<u64> {
        self.frame.get(&(b, f, frame)).copied()
    }

    pub fn device_origin(&self, b: usize, f: usize) -> Option<FaultOrigin> {
        self.device.get(&(b, f)).copied()
    }

    pub fn port_origin(&self, b: usize, f: usize) -> Option<u64> {
        self.port.get(&(b, f)).copied()
    }

    pub fn codebook_origin(&self, b: usize, f: usize) -> Option<u64> {
        self.codebook.get(&(b, f)).copied()
    }

    /// The codebook was rebuilt from the ECC-protected golden: whatever
    /// SEFI poisoned it no longer explains codebook symptoms.
    pub fn clear_codebook(&mut self, b: usize, f: usize) {
        self.codebook.remove(&(b, f));
    }

    /// A fault's lifecycle closed (repair, periodic reconfig, or mission
    /// end): release the symptom surfaces it owned, keeping entries that
    /// a *newer* fault has since overwritten.
    pub fn resolve(&mut self, b: usize, f: usize, frame: Option<usize>, origin: FaultOrigin) {
        if let (Some(fr), FaultOrigin::Upset(id)) = (frame, origin) {
            if self.frame.get(&(b, f, fr)) == Some(&id) {
                self.frame.remove(&(b, f, fr));
            }
        }
        if self.device.get(&(b, f)) == Some(&origin) {
            self.device.remove(&(b, f));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_releases_only_the_owning_fault() {
        let mut l = CorrelationLedger::default();
        l.note_frame_upset(0, 1, 7, 3);
        l.note_device_fault(0, 1, FaultOrigin::Upset(3));
        // A newer upset takes over the frame before the old one resolves.
        l.note_frame_upset(0, 1, 7, 9);
        l.resolve(0, 1, Some(7), FaultOrigin::Upset(3));
        assert_eq!(l.frame_origin(0, 1, 7), Some(9), "newer owner survives");
        assert_eq!(l.device_origin(0, 1), None, "device entry released");
    }

    #[test]
    fn codebook_clears_on_rebuild_port_is_latest_wins() {
        let mut l = CorrelationLedger::default();
        l.note_codebook_sefi(1, 0, 4);
        l.note_port_sefi(1, 0, 4);
        l.note_port_sefi(1, 0, 6);
        assert_eq!(l.codebook_origin(1, 0), Some(4));
        l.clear_codebook(1, 0);
        assert_eq!(l.codebook_origin(1, 0), None);
        assert_eq!(l.port_origin(1, 0), Some(6));
    }

    #[test]
    fn field_keys_and_event_names_match_origin_space() {
        let u = FaultOrigin::Upset(1);
        let s = FaultOrigin::Sefi(2);
        assert_eq!(u.field_key(), "upset_id");
        assert_eq!(s.field_key(), "sefi_id");
        assert_eq!(u.resolved_event(), "mission.upset_resolved");
        assert_eq!(s.leaked_event(), "mission.sefi_leaked");
        assert_eq!(s.id(), 2);
    }
}
