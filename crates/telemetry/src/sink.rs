//! The `Telemetry` handle — the one type the rest of the stack holds.
//!
//! A handle is either *disabled* (the default: one `Option` branch per
//! call, no allocation, no locking — mission results are bit-identical to
//! an uninstrumented build) or *recording* (shared core with the flight
//! log, its post-mortems and the metrics registry). Handles are cheap
//! clones of the same core, so a payload, its mission kernel and an
//! ensemble member can all feed one recorder. Recording an event takes
//! one lock and moves the event into the log.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::{Severity, Subsystem, TelemetryEvent};
use crate::metrics::{MetricsRegistry, Snapshot};
use crate::recorder::{FlightLog, PostMortem};

#[derive(Debug)]
struct TelemetryCore {
    log: Mutex<FlightLog>,
    metrics: MetricsRegistry,
}

impl TelemetryCore {
    fn log(&self) -> MutexGuard<'_, FlightLog> {
        self.log
            .lock()
            .expect("no thread panics while it holds the flight log")
    }
}

/// The cloneable telemetry handle. `Default` is disabled.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryCore>>,
}

impl Telemetry {
    /// The zero-cost disabled handle.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A recording handle with an empty log.
    pub fn recording() -> Self {
        Telemetry {
            inner: Some(Arc::new(TelemetryCore {
                log: Mutex::new(FlightLog::default()),
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record a fully-built event.
    pub fn emit(&self, event: TelemetryEvent) {
        if let Some(core) = &self.inner {
            core.log().record(event);
        }
    }

    /// Build-and-emit: `build` runs only when recording, so the disabled
    /// path costs one branch and zero allocations.
    pub fn emit_with(&self, build: impl FnOnce() -> TelemetryEvent) {
        if self.is_enabled() {
            self.emit(build());
        }
    }

    /// Shorthand for a field-less point event.
    pub fn point(&self, subsystem: Subsystem, severity: Severity, name: &'static str, t_ns: u64) {
        self.emit_with(|| TelemetryEvent::point(subsystem, severity, name, t_ns));
    }

    /// Shorthand for a field-less span.
    pub fn span(&self, subsystem: Subsystem, name: &'static str, t_ns: u64, dur_ns: u64) {
        self.emit_with(|| TelemetryEvent::span(subsystem, name, t_ns, dur_ns));
    }

    /// Add to a metrics counter (no-op when disabled).
    pub fn inc(&self, name: &'static str, delta: u64) {
        if let Some(core) = &self.inner {
            core.metrics.inc(name, delta);
        }
    }

    /// Set a metrics gauge (no-op when disabled).
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(core) = &self.inner {
            core.metrics.gauge(name, value);
        }
    }

    /// Record into a histogram (no-op when disabled).
    pub fn observe(&self, name: &'static str, bounds: &'static [f64], value: f64) {
        if let Some(core) = &self.inner {
            core.metrics.observe(name, bounds, value);
        }
    }

    /// Copy of the full event log (empty when disabled).
    pub fn events(&self) -> Vec<TelemetryEvent> {
        match &self.inner {
            Some(core) => core.log().events.clone(),
            None => Vec::new(),
        }
    }

    /// Post-mortems captured by the flight recorder, in capture order.
    pub fn post_mortems(&self) -> Vec<PostMortem> {
        match &self.inner {
            Some(core) => core.log().post_mortems.clone(),
            None => Vec::new(),
        }
    }

    /// Metrics snapshot (empty when disabled).
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(core) => core.metrics.snapshot(),
            None => Snapshot::default(),
        }
    }

    /// Serialize every logged event as JSONL, one event per line, in
    /// emission order. Deterministic for deterministic missions. The
    /// lines are written straight from the log into one buffer.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(core) = &self.inner {
            for ev in &core.log().events {
                ev.write_jsonl(&mut out);
                out.push('\n');
            }
        }
        out
    }

    /// One JSONL line carrying the metrics snapshot, shaped like an event
    /// (`t_ns`/`name` present) so dumps stay uniformly lintable.
    pub fn snapshot_jsonl(&self, t_ns: u64) -> String {
        use crate::json::JsonObject;
        let snap = self.snapshot();
        let inner = snap.to_json();
        let mut o = JsonObject::new();
        o.num_u64("t_ns", t_ns);
        o.str("sev", Severity::Info.name());
        o.str("sub", "telemetry");
        o.str("name", "telemetry.snapshot");
        // `inner` is `{"counters":...}` — splice its body into this object.
        o.raw("metrics", &inner);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{validate_json_line, FlatObject};

    /// The writer's shape, read through `FlatObject`: `t_ns` is the first
    /// key and `name` is one of the keys.
    fn assert_event_shaped(line: &str) {
        let mut object = FlatObject::new(line);
        let mut keys = Vec::new();
        while let Some((key, _)) = object
            .next_field()
            .unwrap_or_else(|e| panic!("{e} on {line:?}"))
        {
            keys.push(key.decode().into_owned());
        }
        assert_eq!(keys.first().map(String::as_str), Some("t_ns"), "{line:?}");
        assert!(keys.iter().any(|k| k == "name"), "{line:?}");
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.point(Subsystem::Scrub, Severity::Critical, "x", 1);
        t.inc("c", 1);
        t.observe("h", crate::metrics::RETRIES_BUCKETS, 1.0);
        assert!(t.events().is_empty());
        assert!(t.post_mortems().is_empty());
        assert!(t.snapshot().counters.is_empty());
        assert!(t.dump_jsonl().is_empty());
    }

    #[test]
    fn emit_with_skips_closure_when_disabled() {
        let t = Telemetry::disabled();
        let mut called = false;
        t.emit_with(|| {
            called = true;
            TelemetryEvent::point(Subsystem::Scrub, Severity::Info, "x", 0)
        });
        assert!(!called, "disabled sink must not build events");
    }

    #[test]
    fn clones_share_one_core() {
        let t = Telemetry::recording();
        let u = t.clone();
        u.point(Subsystem::Mission, Severity::Info, "mission.start", 0);
        u.inc("rounds", 3);
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.snapshot().counters[0].1, 3);
    }

    #[test]
    fn dump_lines_all_lint() {
        let t = Telemetry::recording();
        t.emit(
            TelemetryEvent::point(
                Subsystem::Scrub,
                Severity::Critical,
                "scrub.device_degraded",
                9,
            )
            .with_device(0, 1)
            .with_str("reason", "port"),
        );
        t.span(Subsystem::Mission, "mission.round", 0, 500);
        for line in t.dump_jsonl().lines() {
            assert_event_shaped(line);
        }
        assert_eq!(t.post_mortems().len(), 1);
        let snap_line = t.snapshot_jsonl(10);
        validate_json_line(&snap_line).unwrap();
        assert_event_shaped(&snap_line);
    }
}
