//! The flight recorder: the event log and the post-mortems it freezes.
//!
//! Every recorded event lands once, in emission order, in one log. When a
//! `Critical` event lands on a device the recorder freezes that device's
//! last [`POST_MORTEM_EVENTS`] events into a [`PostMortem`] — the
//! timeline a ground crew would study to learn *why* the ladder climbed
//! to degradation. The timeline is read back out of the log at capture,
//! which happens at most once per degraded device, so recording an event
//! copies nothing.

use crate::event::{Severity, TelemetryEvent};

/// Events a post-mortem timeline holds, its trigger included.
pub const POST_MORTEM_EVENTS: usize = 64;

/// A frozen copy of one device's recent history, captured at the moment a
/// critical event hit it.
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    pub board: u16,
    pub fpga: u16,
    /// Sim time of the triggering critical event.
    pub t_ns: u64,
    /// Name of the triggering critical event.
    pub trigger: &'static str,
    /// The device's last [`POST_MORTEM_EVENTS`] events, oldest first —
    /// the triggering event is the last entry.
    pub timeline: Vec<TelemetryEvent>,
}

/// The event log and its post-mortems, kept under one lock by the
/// [`Telemetry`](crate::Telemetry) handle.
#[derive(Debug, Default)]
pub(crate) struct FlightLog {
    /// Every event in emission order — the JSONL dump source.
    pub(crate) events: Vec<TelemetryEvent>,
    pub(crate) post_mortems: Vec<PostMortem>,
}

impl FlightLog {
    /// Log one event, capturing a post-mortem if it is critical and
    /// device-scoped.
    pub(crate) fn record(&mut self, event: TelemetryEvent) {
        if let (Severity::Critical, Some((board, fpga))) = (event.severity, event.device) {
            let mut timeline: Vec<TelemetryEvent> = self
                .events
                .iter()
                .rev()
                .filter(|e| e.device == event.device)
                .take(POST_MORTEM_EVENTS - 1)
                .cloned()
                .collect();
            timeline.reverse();
            timeline.push(event.clone());
            self.post_mortems.push(PostMortem {
                board,
                fpga,
                t_ns: event.t_ns,
                trigger: event.name,
                timeline,
            });
        }
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Subsystem;
    use crate::Telemetry;

    fn ev(
        t: u64,
        name: &'static str,
        sev: Severity,
        dev: Option<(usize, usize)>,
    ) -> TelemetryEvent {
        let e = TelemetryEvent::point(Subsystem::Scrub, sev, name, t);
        match dev {
            Some((b, f)) => e.with_device(b, f),
            None => e,
        }
    }

    #[test]
    fn post_mortem_holds_the_last_64_device_events() {
        let t = Telemetry::recording();
        for i in 0..70 {
            t.emit(ev(i, "scrub.frame_corrupt", Severity::Info, Some((0, 1))));
            // Other devices' traffic, and device-less events, interleave.
            t.emit(ev(i, "scrub.frame_corrupt", Severity::Info, Some((1, 0))));
            if i % 7 == 0 {
                t.point(Subsystem::Mission, Severity::Info, "mission.round", i);
            }
        }
        let trigger = ev(
            70,
            "scrub.device_degraded",
            Severity::Critical,
            Some((0, 1)),
        );
        t.emit(trigger.clone());
        let pms = t.post_mortems();
        assert_eq!(pms.len(), 1);
        let pm = &pms[0];
        assert_eq!((pm.board, pm.fpga, pm.t_ns), (0, 1, 70));
        assert_eq!(pm.timeline.len(), POST_MORTEM_EVENTS);
        let times: Vec<u64> = pm.timeline.iter().map(|e| e.t_ns).collect();
        assert_eq!(times, (7..=70).collect::<Vec<_>>(), "oldest first");
        assert!(pm.timeline.iter().all(|e| e.device == Some((0, 1))));
        assert_eq!(pm.timeline.last(), Some(&trigger));
        assert_eq!(
            t.events().len(),
            70 * 2 + 10 + 1,
            "the log keeps every event"
        );
    }

    #[test]
    fn critical_device_event_freezes_a_post_mortem() {
        let t = Telemetry::recording();
        t.emit(ev(1, "scrub.frame_corrupt", Severity::Info, Some((1, 2))));
        t.emit(ev(
            2,
            "scrub.verify_failed",
            Severity::Warning,
            Some((1, 2)),
        ));
        // Unrelated device traffic must not pollute the timeline.
        t.emit(ev(3, "scrub.frame_corrupt", Severity::Info, Some((0, 0))));
        t.emit(ev(
            4,
            "scrub.device_degraded",
            Severity::Critical,
            Some((1, 2)),
        ));
        let pms = t.post_mortems();
        assert_eq!(pms.len(), 1);
        let pm = &pms[0];
        assert_eq!((pm.board, pm.fpga), (1, 2));
        assert_eq!(pm.t_ns, 4);
        assert_eq!(pm.trigger, "scrub.device_degraded");
        let names: Vec<_> = pm.timeline.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "scrub.frame_corrupt",
                "scrub.verify_failed",
                "scrub.device_degraded"
            ]
        );
    }

    #[test]
    fn critical_without_device_is_not_a_post_mortem() {
        let t = Telemetry::recording();
        t.emit(ev(1, "scrub.frame_corrupt", Severity::Info, Some((0, 0))));
        t.emit(ev(2, "mission.abort", Severity::Critical, None));
        assert!(t.post_mortems().is_empty());
        assert_eq!(t.events().len(), 2);
    }
}
