//! The structured event model.
//!
//! Every event is keyed on **simulated mission time** (`t_ns`, nanoseconds
//! since power-on) — never wall-clock — so a replay of the same seed
//! produces a bit-identical event stream. Wall-clock measurements (host
//! seconds, throughput) belong in the metrics registry, where they are
//! clearly separated from the deterministic flight record.

use crate::json::JsonObject;

/// Downlink/display priority of an event. Ordered: `Critical` outranks
/// `Warning` outranks `Info` outranks `Debug` when a pass budget forces
/// the encoder to shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Debug = 0,
    Info = 1,
    Warning = 2,
    Critical = 3,
}

impl Severity {
    /// All severities, lowest first.
    pub const ALL: [Severity; 4] = [
        Severity::Debug,
        Severity::Info,
        Severity::Warning,
        Severity::Critical,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    /// Index into per-severity count arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Which layer of the stack produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// The SelectMAP configuration-port model (`cibola-arch`).
    Port,
    /// The hardened scrub pipeline (`cibola-scrub::payload`).
    Scrub,
    /// The mission kernel (`cibola-scrub::mission`).
    Mission,
    /// The Monte-Carlo ensemble runner (`cibola-scrub::ensemble`).
    Ensemble,
    /// The SEU simulator (`cibola-inject`).
    Inject,
    /// Built-in self test (`cibola-bist`).
    Bist,
    /// The ground link / SOH downlink encoder.
    Downlink,
}

impl Subsystem {
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Port => "port",
            Subsystem::Scrub => "scrub",
            Subsystem::Mission => "mission",
            Subsystem::Ensemble => "ensemble",
            Subsystem::Inject => "inject",
            Subsystem::Bist => "bist",
            Subsystem::Downlink => "downlink",
        }
    }
}

/// Required field keys for events with a structured schema contract —
/// the mitigation-strategy and adaptive-controller vocabulary that
/// `telemetry_lint` enforces on JSONL dumps. An event name absent from
/// this table only needs the universal `t_ns`/`name` shape; a name
/// present here must also carry every listed field key.
pub fn known_event_required_fields(name: &str) -> Option<&'static [&'static str]> {
    match name {
        // Adaptive scrub-rate controller retune decision.
        "strategy.retune" => Some(&["k_old", "k_new", "window", "upsets"]),
        // Frame-level majority voter outcomes (also SOH events).
        "scrub.voter_disagreement" => Some(&["frame"]),
        "scrub.voted_repair" => Some(&["frame"]),
        // Intermodular shared-controller queueing.
        "strategy.queue_wait" => Some(&["rounds"]),
        // Strategy-mission header: names the strategy driving the run.
        "strategy.mission_begin" => Some(&["strategy"]),
        // Upset/SEFI lifecycle anchors: the correlation-id origin events
        // and the resolution/leak events that close each lifecycle.
        "mission.upset" => Some(&["upset_id", "cause", "sensitive", "repairable"]),
        "mission.sefi" => Some(&["sefi_id", "kind"]),
        "mission.upset_resolved" => Some(&["upset_id", "cause", "latency_ns", "via"]),
        "mission.sefi_resolved" => Some(&["sefi_id", "cause", "latency_ns", "via"]),
        "mission.upset_leaked" => Some(&["upset_id", "cause", "age_ns"]),
        "mission.sefi_leaked" => Some(&["sefi_id", "cause", "age_ns"]),
        // Mission-end roll-up: the reconciliation anchor forensics totals
        // are checked against.
        "mission.end" => Some(&["upsets_total", "detected", "unavailable_ns", "availability"]),
        // Budgeted SOH downlink plan summary.
        "downlink.plan" => Some(&["passes", "sent", "shed"]),
        _ => None,
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(&'static str),
}

/// One structured telemetry record: a point event, or — when `dur_ns` is
/// set — a span that started at `t_ns` and lasted `dur_ns` of simulated
/// time.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Simulated time of the event (span start for spans), in ns.
    pub t_ns: u64,
    pub severity: Severity,
    pub subsystem: Subsystem,
    /// `(board, fpga)` when the event is tied to one device.
    pub device: Option<(u16, u16)>,
    /// Dot-separated event name, e.g. `"scrub.frame_repaired"`.
    pub name: &'static str,
    /// Simulated duration — present iff this is a span.
    pub dur_ns: Option<u64>,
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TelemetryEvent {
    /// A point event.
    pub fn point(subsystem: Subsystem, severity: Severity, name: &'static str, t_ns: u64) -> Self {
        TelemetryEvent {
            t_ns,
            severity,
            subsystem,
            device: None,
            name,
            dur_ns: None,
            fields: Vec::new(),
        }
    }

    /// A span over simulated time `[t_ns, t_ns + dur_ns]`.
    pub fn span(subsystem: Subsystem, name: &'static str, t_ns: u64, dur_ns: u64) -> Self {
        TelemetryEvent {
            t_ns,
            severity: Severity::Debug,
            subsystem,
            device: None,
            name,
            dur_ns: Some(dur_ns),
            fields: Vec::new(),
        }
    }

    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    pub fn with_device(mut self, board: usize, fpga: usize) -> Self {
        self.device = Some((board as u16, fpga as u16));
        self
    }

    pub fn with_u64(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, FieldValue::U64(value)));
        self
    }

    pub fn with_i64(mut self, key: &'static str, value: i64) -> Self {
        self.fields.push((key, FieldValue::I64(value)));
        self
    }

    pub fn with_f64(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, FieldValue::F64(value)));
        self
    }

    pub fn with_bool(mut self, key: &'static str, value: bool) -> Self {
        self.fields.push((key, FieldValue::Bool(value)));
        self
    }

    pub fn with_str(mut self, key: &'static str, value: &'static str) -> Self {
        self.fields.push((key, FieldValue::Str(value)));
        self
    }

    /// Append this event's JSONL line (no trailing newline) to `out`. Key
    /// order is fixed, so equal events serialize to equal bytes.
    pub fn write_jsonl(&self, out: &mut String) {
        let mut o = JsonObject::extending(std::mem::take(out));
        o.num_u64("t_ns", self.t_ns);
        o.str("sev", self.severity.name());
        o.str("sub", self.subsystem.name());
        o.str("name", self.name);
        if let Some((b, f)) = self.device {
            o.num_u64("board", b as u64);
            o.num_u64("fpga", f as u64);
        }
        if let Some(d) = self.dur_ns {
            o.num_u64("dur_ns", d);
        }
        for (k, v) in &self.fields {
            match v {
                FieldValue::U64(x) => o.num_u64(k, *x),
                FieldValue::I64(x) => o.num_i64(k, *x),
                FieldValue::F64(x) => o.num_f64(k, *x),
                FieldValue::Bool(x) => o.bool(k, *x),
                FieldValue::Str(x) => o.str(k, x),
            }
        }
        *out = o.finish();
    }

    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut line = String::new();
        self.write_jsonl(&mut line);
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_for_shedding() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert!(Severity::Info > Severity::Debug);
    }

    #[test]
    fn jsonl_is_stable_and_flat() {
        let ev = TelemetryEvent::point(Subsystem::Scrub, Severity::Warning, "scrub.port_sefi", 42)
            .with_device(1, 2)
            .with_bool("wedged", true)
            .with_u64("frame", 7);
        let line = ev.to_jsonl();
        assert_eq!(
            line,
            "{\"t_ns\":42,\"sev\":\"warning\",\"sub\":\"scrub\",\
             \"name\":\"scrub.port_sefi\",\"board\":1,\"fpga\":2,\
             \"wedged\":true,\"frame\":7}"
        );
        assert_eq!(line, ev.clone().to_jsonl(), "serialization is pure");
        let mut appended = String::from("prefix\n");
        ev.write_jsonl(&mut appended);
        assert_eq!(appended, format!("prefix\n{line}"), "write_jsonl appends");
    }

    #[test]
    fn span_serializes_duration() {
        let ev = TelemetryEvent::span(Subsystem::Mission, "mission.round", 10, 180);
        assert!(ev.to_jsonl().contains("\"dur_ns\":180"));
    }
}
