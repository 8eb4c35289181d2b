//! The mission forensics report: everything the lifecycle stream can
//! prove, aggregated deterministically.
//!
//! Two rendering paths — human text and machine JSON — are both pure
//! functions of the aggregate state, so the same stream always produces
//! byte-identical output, and the event-driven and reference kernels
//! (which emit identical lifecycle streams) produce byte-identical
//! reports.
//!
//! Two float fields deliberately replay the kernel's own floating-point
//! operations in the kernel's order — `scrub_mttr_mean_ms` and
//! `availability` — so they can be compared *bit-exactly* against the
//! `mission.end` roll-up rather than within an epsilon.

use std::collections::BTreeMap;
use std::io::BufRead;

use cibola_telemetry::{EscalationRung, JsonObject};

use crate::anomaly::Anomaly;
use crate::fold::ForensicsFold;
use crate::lifecycle::FaultLifecycle;
use crate::raw::{from_events, read_jsonl, ForensicsError, IdSpace, RawEvent};

/// A latency distribution over exact nanosecond samples. Integer sums
/// keep the aggregate order-independent; only the two replicated kernel
/// floats (held on [`MissionForensics`] directly) use float accumulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyDist {
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl LatencyDist {
    pub fn add(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        // A corrupt stream's latencies may not fit; saturate, never panic.
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_ns as f64 / 1e6) / self.count as f64
        }
    }

    pub fn max_ms(&self) -> f64 {
        self.max_ns as f64 / 1e6
    }
}

/// Aggregates for one cause class (upset causes and SEFI kinds share the
/// table — the two id spaces use disjoint cause names).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CauseStats {
    pub injected: u64,
    pub sensitive: u64,
    /// Repair mechanism (`"scrub"`, `"periodic-reconfig"`, …) → count.
    pub resolved: BTreeMap<String, u64>,
    pub leaked: u64,
    pub open: u64,
    /// Scrub-pipeline events that referenced this class's ids.
    pub symptoms: u64,
    /// Injection → first referencing scrub event (detection).
    pub detect: LatencyDist,
    /// Injection → resolution, all mechanisms (repair).
    pub repair: LatencyDist,
    /// Sensitive outage charged to this class: Σ resolution latency over
    /// sensitive resolved + Σ age over sensitive leaked. Exact, and the
    /// per-class values sum to the mission's `unavailable_ns`.
    pub unavailable_ns: u64,
}

impl CauseStats {
    pub fn resolved_total(&self) -> u64 {
        self.resolved.values().sum()
    }
}

/// The full mission forensics report.
#[derive(Debug, Clone)]
pub struct MissionForensics {
    /// From `strategy.mission_begin`, or `"builtin"` for plain
    /// `run_mission` streams that carry no strategy banner.
    pub strategy: String,
    /// Mission duration (the `mission.end` span length); 0 for truncated
    /// streams with no roll-up.
    pub duration_ns: u64,
    /// Device count from the roll-up (0 when absent).
    pub devices: u64,
    pub upsets: u64,
    pub sefis: u64,
    /// Per cause class, keyed by cause/kind name (deterministic order).
    pub causes: BTreeMap<String, CauseStats>,
    /// Repair-mechanism → latency distribution across all classes.
    pub vias: BTreeMap<String, LatencyDist>,
    /// Escalation-ladder flow: SOH events per rung, in rung order, via
    /// the shared `SOH_EVENT_META` severity/rung table.
    pub rung_events: [u64; 6],
    /// SOH events carrying no rung tag (pure observations).
    pub unrung_events: u64,
    /// Every event-name occurrence count (includes non-SOH names).
    pub event_counts: BTreeMap<String, u64>,
    /// Total SOH records seen (events with a `SOH_EVENT_META` row).
    pub soh_events: u64,
    /// Re-derived sensitive outage: exact u64 sum over the lifecycles.
    pub unavailable_ns: u64,
    /// Replication of the kernel's detect-latency mean over scrub
    /// resolutions, accumulated in stream order with the kernel's float
    /// ops (`ns as f64 / 1e6`, summed, divided once).
    pub scrub_mttr_mean_ms: f64,
    pub scrub_mttr_max_ms: f64,
    /// Replication of the kernel's availability formula from the
    /// re-derived outage, duration and device count.
    pub availability: f64,
    /// The `mission.end` roll-up (reconciliation anchor), when present.
    pub rollup: Option<RawEvent>,
    /// The `downlink.plan` summary, when SOH downlink was budgeted.
    pub downlink: Option<RawEvent>,
    pub anomalies: Vec<Anomaly>,
    /// Every reconstructed lifecycle, in origin order.
    pub lifecycles: Vec<FaultLifecycle>,
}

impl MissionForensics {
    /// Build a report from a JSONL telemetry dump held in memory.
    pub fn from_jsonl(text: &str) -> Result<MissionForensics, ForensicsError> {
        Self::from_reader(text.as_bytes())
    }

    /// Build a report from a JSONL telemetry dump read line by line:
    /// only the fold's state is held, never the dump or its events.
    pub fn from_reader(reader: impl BufRead) -> Result<MissionForensics, ForensicsError> {
        ForensicsFold::fold(read_jsonl(reader))
    }

    /// Build a report from an in-memory recorded event vector.
    pub fn from_events(
        events: &[cibola_telemetry::TelemetryEvent],
    ) -> Result<MissionForensics, ForensicsError> {
        ForensicsFold::fold(from_events(events))
    }

    /// Build a report from already-decoded events.
    pub fn from_raw(events: &[RawEvent]) -> Result<MissionForensics, ForensicsError> {
        ForensicsFold::fold(events.iter().map(Ok))
    }

    /// Cross-check every re-derivable roll-up field against the stream.
    /// Returns one message per mismatch; empty means the ledger closes
    /// exactly. Roll-up fields that are *not* stream-derivable (e.g.
    /// `full_reconfigs`, which also counts failed periodic attempts) are
    /// deliberately not compared.
    pub fn reconcile(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let rollup = match &self.rollup {
            Some(r) => r,
            None => {
                errs.push("no mission.end roll-up to reconcile against".to_string());
                return errs;
            }
        };
        let count = |name: &str| self.event_counts.get(name).copied().unwrap_or(0);
        let cause = |name: &str| self.causes.get(name).cloned().unwrap_or_default();
        let mut check_u64 = |field: &str, derived: u64| match rollup.u64_field(field) {
            Some(v) if v == derived => {}
            Some(v) => errs.push(format!("{field}: rollup {v} != derived {derived}")),
            None => errs.push(format!("{field}: missing from rollup")),
        };

        check_u64("upsets_total", self.upsets);
        check_u64("upsets_config", cause("config").injected);
        check_u64("upsets_config_masked", cause("config-masked").injected);
        check_u64("upsets_half_latch", cause("half-latch").injected);
        check_u64("upsets_user_ff", cause("user-ff").injected);
        check_u64("upsets_fsm", cause("fsm").injected);
        // The kernel's `sensitive_upsets` counts sensitive *config-bit*
        // strikes only; half-latch and FSM upsets are sensitive outage
        // sources but tallied under their own counters.
        check_u64(
            "sensitive_upsets",
            self.lifecycles
                .iter()
                .filter(|l| {
                    l.space == IdSpace::Upset
                        && l.sensitive
                        && (l.cause == "config" || l.cause == "config-masked")
                })
                .count() as u64,
        );
        check_u64("sefis_injected", self.sefis);
        check_u64("codebook_upsets", cause("codebook-upset").injected);
        // A verified repair emits `frame_repaired` on the scrub path or
        // `voted_repair` on the voter path; both tally `frames_repaired`.
        let repairs = count("scrub.frame_repaired") + count("scrub.voted_repair");
        check_u64("detected", repairs);
        check_u64("frames_repaired", repairs);
        check_u64("unavailable_ns", self.unavailable_ns);
        check_u64("soh_records", self.soh_events);
        check_u64("devices_degraded", count("scrub.device_degraded"));
        check_u64("ladder.repair_retries", count("scrub.repair_retry"));
        check_u64("ladder.verify_failures", count("scrub.verify_failed"));
        check_u64("ladder.codebook_rebuilds", count("scrub.codebook_rebuilt"));
        check_u64("ladder.port_resets", count("scrub.port_reset"));
        check_u64("ladder.devices_degraded", count("scrub.device_degraded"));
        check_u64(
            "ladder.golden_uncorrectable",
            count("scrub.golden_frame_uncorrectable") + count("scrub.golden_image_uncorrectable"),
        );
        if let Some(plan) = &self.downlink {
            let passes = plan.u64_field("passes").unwrap_or(0);
            let shed = plan.u64_field("shed").unwrap_or(0);
            check_u64("soh_downlink_passes", passes);
            check_u64("soh_shed_events", shed);
            let sent = plan.u64_field("sent").unwrap_or(0);
            if sent + shed != self.soh_events {
                errs.push(format!(
                    "downlink.plan sent {sent} + shed {shed} != soh events {}",
                    self.soh_events
                ));
            }
        }
        match rollup.f64_field("detect_latency_mean_ms") {
            Some(v) if v.to_bits() == self.scrub_mttr_mean_ms.to_bits() => {}
            Some(v) => errs.push(format!(
                "detect_latency_mean_ms: rollup {v:?} != derived {:?}",
                self.scrub_mttr_mean_ms
            )),
            None => errs.push("detect_latency_mean_ms: missing from rollup".to_string()),
        }
        match rollup.f64_field("availability") {
            Some(v) if v.to_bits() == self.availability.to_bits() => {}
            Some(v) => errs.push(format!(
                "availability: rollup {v:?} != derived {:?}",
                self.availability
            )),
            None => errs.push("availability: missing from rollup".to_string()),
        }
        errs
    }

    /// Fraction of the mission's sensitive outage attributed to `cause`.
    pub fn outage_share(&self, cause: &str) -> f64 {
        if self.unavailable_ns == 0 {
            0.0
        } else {
            self.causes
                .get(cause)
                .map(|c| c.unavailable_ns as f64 / self.unavailable_ns as f64)
                .unwrap_or(0.0)
        }
    }

    /// Render the human-readable report. Deterministic byte-for-byte.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        writeln!(s, "== cibola mission forensics ==").unwrap();
        writeln!(s, "strategy          {}", self.strategy).unwrap();
        writeln!(
            s,
            "duration          {:.3} s across {} devices",
            self.duration_ns as f64 / 1e9,
            self.devices
        )
        .unwrap();
        writeln!(
            s,
            "faults            {} ({} upsets, {} sefis)",
            self.upsets + self.sefis,
            self.upsets,
            self.sefis
        )
        .unwrap();
        writeln!(
            s,
            "availability      {:.6}  (sensitive outage {:.3} ms)",
            self.availability,
            ms(self.unavailable_ns)
        )
        .unwrap();
        writeln!(
            s,
            "scrub MTTR        mean {:.3} ms  max {:.3} ms",
            self.scrub_mttr_mean_ms, self.scrub_mttr_max_ms
        )
        .unwrap();

        writeln!(s, "\n-- cause classes --").unwrap();
        writeln!(
            s,
            "{:<16} {:>8} {:>9} {:>8} {:>6} {:>5} {:>9} {:>9} {:>11} {:>7}",
            "cause",
            "injected",
            "sensitive",
            "resolved",
            "leaked",
            "open",
            "mttd_ms",
            "mttr_ms",
            "outage_ms",
            "share%"
        )
        .unwrap();
        for (name, c) in &self.causes {
            writeln!(
                s,
                "{:<16} {:>8} {:>9} {:>8} {:>6} {:>5} {:>9.3} {:>9.3} {:>11.3} {:>7.2}",
                name,
                c.injected,
                c.sensitive,
                c.resolved_total(),
                c.leaked,
                c.open,
                c.detect.mean_ms(),
                c.repair.mean_ms(),
                ms(c.unavailable_ns),
                self.outage_share(name) * 100.0
            )
            .unwrap();
        }

        writeln!(s, "\n-- repair mechanisms --").unwrap();
        writeln!(
            s,
            "{:<18} {:>8} {:>9} {:>9}",
            "via", "resolved", "mean_ms", "max_ms"
        )
        .unwrap();
        for (via, d) in &self.vias {
            writeln!(
                s,
                "{:<18} {:>8} {:>9.3} {:>9.3}",
                via,
                d.count,
                d.mean_ms(),
                d.max_ms()
            )
            .unwrap();
        }

        writeln!(s, "\n-- escalation ladder flow --").unwrap();
        for rung in EscalationRung::ALL {
            writeln!(
                s,
                "rung {} {:<16} {:>8}",
                rung.index(),
                rung.name(),
                self.rung_events[rung.index() as usize]
            )
            .unwrap();
        }
        writeln!(s, "unrung SOH events {:>10}", self.unrung_events).unwrap();

        if let Some(plan) = &self.downlink {
            writeln!(s, "\n-- SOH downlink --").unwrap();
            writeln!(
                s,
                "passes {}  sent {}  shed {}  shed_critical {}",
                plan.u64_field("passes").unwrap_or(0),
                plan.u64_field("sent").unwrap_or(0),
                plan.u64_field("shed").unwrap_or(0),
                plan.u64_field("shed_critical").unwrap_or(0)
            )
            .unwrap();
        }

        writeln!(s, "\n-- reconciliation --").unwrap();
        let errs = self.reconcile();
        if errs.is_empty() {
            writeln!(s, "ok: roll-up counters close exactly against the stream").unwrap();
        } else {
            for e in &errs {
                writeln!(s, "MISMATCH {e}").unwrap();
            }
        }

        writeln!(s, "\n-- anomalies --").unwrap();
        if self.anomalies.is_empty() {
            writeln!(s, "none").unwrap();
        } else {
            for a in &self.anomalies {
                match a.device {
                    Some((b, f)) => writeln!(s, "{} [{b}.{f}] {}", a.kind, a.detail).unwrap(),
                    None => writeln!(s, "{} {}", a.kind, a.detail).unwrap(),
                }
            }
        }
        s
    }

    /// Render the machine-readable report as one JSON object.
    /// Deterministic byte-for-byte for identical streams.
    pub fn to_json(&self) -> String {
        let mut causes = Vec::new();
        for (name, c) in &self.causes {
            let mut vias = Vec::new();
            for (via, n) in &c.resolved {
                let mut v = JsonObject::new();
                v.str("via", via);
                v.num_u64("n", *n);
                vias.push(v.finish());
            }
            let mut o = JsonObject::new();
            o.str("cause", name);
            o.num_u64("injected", c.injected);
            o.num_u64("sensitive", c.sensitive);
            o.num_u64("resolved", c.resolved_total());
            o.num_u64("leaked", c.leaked);
            o.num_u64("open", c.open);
            o.num_u64("symptoms", c.symptoms);
            o.num_f64("mttd_ms", c.detect.mean_ms());
            o.num_f64("mttr_ms", c.repair.mean_ms());
            o.num_u64("unavailable_ns", c.unavailable_ns);
            o.num_f64("outage_share", self.outage_share(name));
            o.raw("resolved_by", &format!("[{}]", vias.join(",")));
            causes.push(o.finish());
        }
        let rungs: Vec<String> = EscalationRung::ALL
            .iter()
            .map(|r| {
                let mut o = JsonObject::new();
                o.num_u64("rung", r.index() as u64);
                o.str("name", r.name());
                o.num_u64("events", self.rung_events[r.index() as usize]);
                o.finish()
            })
            .collect();
        let anomalies: Vec<String> = self
            .anomalies
            .iter()
            .map(|a| {
                let mut o = JsonObject::new();
                o.str("kind", a.kind);
                if let Some((b, f)) = a.device {
                    o.num_u64("board", b as u64);
                    o.num_u64("fpga", f as u64);
                }
                o.str("detail", &a.detail);
                o.finish()
            })
            .collect();
        let recon = self.reconcile();
        let mut obj = JsonObject::new();
        obj.str("strategy", &self.strategy);
        obj.num_u64("duration_ns", self.duration_ns);
        obj.num_u64("devices", self.devices);
        obj.num_u64("upsets", self.upsets);
        obj.num_u64("sefis", self.sefis);
        obj.num_u64("soh_events", self.soh_events);
        obj.num_u64("unavailable_ns", self.unavailable_ns);
        obj.num_f64("availability", self.availability);
        obj.num_f64("scrub_mttr_mean_ms", self.scrub_mttr_mean_ms);
        obj.num_f64("scrub_mttr_max_ms", self.scrub_mttr_max_ms);
        obj.bool("reconciled", recon.is_empty());
        obj.num_u64("reconcile_mismatches", recon.len() as u64);
        obj.raw("causes", &format!("[{}]", causes.join(",")));
        obj.raw("ladder", &format!("[{}]", rungs.join(",")));
        obj.num_u64("unrung_events", self.unrung_events);
        obj.raw("anomalies", &format!("[{}]", anomalies.join(",")));
        if let Some(plan) = &self.downlink {
            let mut d = JsonObject::new();
            d.num_u64("passes", plan.u64_field("passes").unwrap_or(0));
            d.num_u64("sent", plan.u64_field("sent").unwrap_or(0));
            d.num_u64("shed", plan.u64_field("shed").unwrap_or(0));
            d.num_u64(
                "shed_critical",
                plan.u64_field("shed_critical").unwrap_or(0),
            );
            obj.raw("downlink", &d.finish());
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_stream() -> &'static str {
        concat!(
            "{\"t_ns\":0,\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"strategy.mission_begin\",\"strategy\":\"ladder\"}\n",
            "{\"t_ns\":10,\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.upset\",\"board\":0,\"fpga\":0,\"upset_id\":1,\"cause\":\"config\",\"sensitive\":true,\"repairable\":true}\n",
            "{\"t_ns\":40,\"sev\":\"info\",\"sub\":\"scrub\",\"name\":\"scrub.frame_corrupt\",\"board\":0,\"fpga\":0,\"frame\":7,\"upset_id\":1}\n",
            "{\"t_ns\":60,\"sev\":\"info\",\"sub\":\"scrub\",\"name\":\"scrub.frame_repaired\",\"board\":0,\"fpga\":0,\"frame\":7,\"upset_id\":1}\n",
            "{\"t_ns\":100,\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.upset_resolved\",\"board\":0,\"fpga\":0,\"upset_id\":1,\"cause\":\"config\",\"latency_ns\":90,\"sensitive\":true,\"via\":\"scrub\"}\n",
            "{\"t_ns\":200,\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.upset\",\"board\":0,\"fpga\":1,\"upset_id\":2,\"cause\":\"half-latch\",\"sensitive\":true,\"repairable\":false}\n",
            "{\"t_ns\":1000,\"sev\":\"warning\",\"sub\":\"mission\",\"name\":\"mission.upset_leaked\",\"board\":0,\"fpga\":1,\"upset_id\":2,\"cause\":\"half-latch\",\"age_ns\":800,\"sensitive\":true}\n",
            "{\"t_ns\":0,\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.end\",\"dur_ns\":1000,\"devices\":2,",
            "\"upsets_total\":2,\"upsets_config\":1,\"upsets_config_masked\":0,\"upsets_half_latch\":1,\"upsets_user_ff\":0,",
            "\"upsets_fsm\":0,\"sensitive_upsets\":1,\"detected\":1,\"frames_repaired\":1,\"devices_degraded\":0,",
            "\"sefis_injected\":0,\"codebook_upsets\":0,\"unavailable_ns\":890,\"soh_records\":2,",
            "\"ladder.repair_retries\":0,\"ladder.verify_failures\":0,\"ladder.codebook_rebuilds\":0,",
            "\"ladder.port_resets\":0,\"ladder.devices_degraded\":0,\"ladder.golden_uncorrectable\":0,",
            "\"detect_latency_mean_ms\":0.5,\"availability\":0.999999555}\n",
        )
    }

    #[test]
    fn aggregates_and_attributes_outage() {
        let r = MissionForensics::from_jsonl(demo_stream()).unwrap();
        assert_eq!(r.strategy, "ladder");
        assert_eq!((r.upsets, r.sefis), (2, 0));
        assert_eq!(r.unavailable_ns, 890);
        assert_eq!(r.causes["config"].unavailable_ns, 90);
        assert_eq!(r.causes["half-latch"].leaked, 1);
        let share = r.outage_share("config") + r.outage_share("half-latch");
        assert!((share - 1.0).abs() < 1e-12);
        assert_eq!(
            r.rung_events[EscalationRung::FrameRepair.index() as usize],
            1
        );
        assert_eq!(r.unrung_events, 1, "frame_corrupt carries no rung");
    }

    #[test]
    fn reconcile_flags_exact_float_and_counter_mismatches() {
        let r = MissionForensics::from_jsonl(demo_stream()).unwrap();
        let errs = r.reconcile();
        // The demo roll-up's hand-written floats do not replay the
        // kernel ops, so exactly those two fields must flag.
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs
            .iter()
            .all(|e| e.contains("detect_latency_mean_ms") || e.contains("availability")));
    }

    #[test]
    fn renders_deterministically() {
        let a = MissionForensics::from_jsonl(demo_stream()).unwrap();
        let b = MissionForensics::from_jsonl(demo_stream()).unwrap();
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.render_text().contains("-- cause classes --"));
        assert!(a.to_json().starts_with('{') && a.to_json().ends_with('}'));
    }
}
