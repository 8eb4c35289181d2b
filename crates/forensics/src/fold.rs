//! The one pass over a decoded stream. [`ForensicsFold`] takes each event
//! in stream order, checks the stream half of the emitter contract (point
//! events stay in order per `(device, subsystem)` stream; lifecycle
//! causality) and gathers what the report needs. It keeps one entry per
//! fault, per event name and per stream, never one per line.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use cibola_telemetry::soh_meta_for;

use crate::anomaly::{detect_anomalies, AnomalyInputs};
use crate::lifecycle::{Outcome, Reconstruction};
use crate::raw::{ForensicsError, IdSpace, RawEvent};
use crate::report::{CauseStats, LatencyDist, MissionForensics};

/// Call [`push`](Self::push) with each event in stream order, then
/// [`finish`](Self::finish).
#[derive(Debug, Clone, Default)]
pub struct ForensicsFold {
    /// Subsystem → device (`None` for the mission-wide stream) → the
    /// stream's last point timestamp.
    last_point: BTreeMap<String, BTreeMap<Option<(u16, u16)>, u64>>,
    recon: Reconstruction,
    anomalies: AnomalyInputs,
    event_counts: BTreeMap<String, u64>,
    rung_events: [u64; 6],
    unrung_events: u64,
    soh_events: u64,
    mttr_sum_ms: f64,
    mttr_n: u64,
    mttr_max_ms: f64,
}

/// `map[key]`, inserted as the default the first time the table sees
/// `key`: a key is allocated once per table, not once per lookup.
fn entry<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

impl ForensicsFold {
    /// The report of a whole stream, or its first error.
    pub(crate) fn fold<E: Borrow<RawEvent>>(
        events: impl IntoIterator<Item = Result<E, ForensicsError>>,
    ) -> Result<MissionForensics, ForensicsError> {
        let mut fold = ForensicsFold::default();
        for ev in events {
            fold.push(ev?.borrow())?;
        }
        fold.finish()
    }

    /// Take the next event; an error cites its line.
    pub fn push(&mut self, ev: &RawEvent) -> Result<(), ForensicsError> {
        let name = ev.name();
        // Spans (dur_ns present) describe intervals — `mission.end` spans
        // the whole mission from t=0 — and are exempt from ordering.
        if ev.dur_ns.is_none() {
            let streams = entry(&mut self.last_point, ev.subsystem());
            let last = streams.entry(ev.device).or_insert(0);
            if ev.t_ns < *last {
                return Err(ForensicsError {
                    line: ev.line,
                    message: format!(
                        "{} t_ns {} goes backwards (stream was at {})",
                        name, ev.t_ns, *last
                    ),
                });
            }
            *last = ev.t_ns;
        }

        self.recon.push(ev)?;

        *entry(&mut self.event_counts, name) += 1;
        if let Some(meta) = soh_meta_for(name) {
            self.soh_events += 1;
            match meta.rung {
                Some(r) => self.rung_events[r.index() as usize] += 1,
                None => self.unrung_events += 1,
            }
        }
        // Kernel-float replication: the kernel pushes one detect latency
        // per scrub resolution, in resolution order, then computes
        // mean = Σ(as_millis_f64) / n and max by f64::max fold. The
        // resolution events are emitted in exactly the push order, so
        // summing them as they pass reproduces the identical floats.
        if (name == "mission.upset_resolved" || name == "mission.sefi_resolved")
            && ev.str_field("via") == Some("scrub")
        {
            let ms = ev.u64_field("latency_ns").unwrap_or(0) as f64 / 1e6;
            self.mttr_sum_ms += ms;
            self.mttr_n += 1;
            self.mttr_max_ms = self.mttr_max_ms.max(ms);
        }

        self.anomalies.observe(ev);
        Ok(())
    }

    /// End the stream: the completeness check (a line-0 error), then the
    /// lifecycle aggregates and the anomaly detectors.
    pub fn finish(self) -> Result<MissionForensics, ForensicsError> {
        self.recon.check_complete()?;
        let recon = self.recon;

        let mut causes: BTreeMap<String, CauseStats> = BTreeMap::new();
        let mut vias: BTreeMap<String, LatencyDist> = BTreeMap::new();
        let mut upsets = 0u64;
        let mut sefis = 0u64;
        let mut unavailable_ns = 0u64;
        for lc in &recon.lifecycles {
            match lc.space {
                IdSpace::Upset => upsets += 1,
                IdSpace::Sefi => sefis += 1,
            }
            let c = entry(&mut causes, &lc.cause);
            c.injected += 1;
            c.symptoms += lc.symptom_count as u64;
            if lc.sensitive {
                c.sensitive += 1;
            }
            if let Some(d) = lc.detect_latency_ns() {
                c.detect.add(d);
            }
            match &lc.outcome {
                Outcome::Resolved {
                    latency_ns, via, ..
                } => {
                    *entry(&mut c.resolved, via) += 1;
                    c.repair.add(*latency_ns);
                    entry(&mut vias, via).add(*latency_ns);
                    if lc.sensitive {
                        c.unavailable_ns = c.unavailable_ns.saturating_add(*latency_ns);
                        unavailable_ns = unavailable_ns.saturating_add(*latency_ns);
                    }
                }
                Outcome::Leaked { age_ns } => {
                    c.leaked += 1;
                    if lc.sensitive {
                        c.unavailable_ns = c.unavailable_ns.saturating_add(*age_ns);
                        unavailable_ns = unavailable_ns.saturating_add(*age_ns);
                    }
                }
                Outcome::Open => c.open += 1,
            }
        }

        let scrub_mttr_mean_ms = if self.mttr_n == 0 {
            0.0
        } else {
            self.mttr_sum_ms / self.mttr_n as f64
        };
        let rollup = recon.mission_end.as_ref();
        let duration_ns = rollup.and_then(|e| e.dur_ns).unwrap_or(0);
        let devices = rollup.and_then(|e| e.u64_field("devices")).unwrap_or(0);
        // The kernel's formula, on the re-derived outage: exact-equal
        // inputs make this bit-identical to the roll-up's float.
        let availability = if duration_ns > 0 && devices > 0 {
            1.0 - (unavailable_ns as f64 / 1e9) / ((duration_ns as f64 / 1e9) * devices as f64)
        } else {
            1.0
        };

        let mut report = MissionForensics {
            strategy: recon.strategy.unwrap_or_else(|| "builtin".to_string()),
            duration_ns,
            devices,
            upsets,
            sefis,
            causes,
            vias,
            rung_events: self.rung_events,
            unrung_events: self.unrung_events,
            event_counts: self.event_counts,
            soh_events: self.soh_events,
            unavailable_ns,
            scrub_mttr_mean_ms,
            scrub_mttr_max_ms: self.mttr_max_ms,
            availability,
            rollup: recon.mission_end,
            downlink: recon.downlink_plan,
            anomalies: Vec::new(),
            lifecycles: recon.lifecycles,
        };
        report.anomalies = detect_anomalies(&self.anomalies, &report);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::parse_jsonl;

    fn fold(lines: &[&str]) -> Result<MissionForensics, ForensicsError> {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        MissionForensics::from_jsonl(&text)
    }

    fn point(t_ns: u64, sub: &str, device: &str) -> String {
        format!("{{\"t_ns\":{t_ns},\"sev\":\"info\",\"sub\":\"{sub}\",\"name\":\"x\"{device}}}")
    }

    #[test]
    fn point_streams_stay_in_order_per_device_and_subsystem() {
        let dev = ",\"board\":0,\"fpga\":1";
        // Each (device, subsystem) stream is its own clock.
        let ok = [
            point(50, "scrub", dev),
            point(10, "mission", dev),
            point(20, "scrub", ""),
            point(50, "scrub", dev),
        ];
        assert!(fold(&ok.each_ref().map(String::as_str)).is_ok());
        let back = [
            point(50, "scrub", dev),
            point(10, "mission", ""),
            point(40, "scrub", dev),
        ];
        let err = fold(&back.each_ref().map(String::as_str)).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.message, "x t_ns 40 goes backwards (stream was at 50)");
        // A span starts wherever its interval starts.
        let span = "{\"t_ns\":0,\"sev\":\"info\",\"sub\":\"scrub\",\"name\":\"s\",\"board\":0,\"fpga\":1,\"dur_ns\":9}";
        assert!(fold(&[&point(50, "scrub", dev), span]).is_ok());
    }

    #[test]
    fn outage_sums_saturate_on_a_corrupt_stream() {
        let upset = |t: u64, id: u64| {
            format!("{{\"t_ns\":{t},\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.upset\",\"board\":0,\"fpga\":0,\"upset_id\":{id},\"cause\":\"config\",\"sensitive\":true,\"repairable\":true}}")
        };
        let resolved = |t: u64, id: u64| {
            format!("{{\"t_ns\":{t},\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.upset_resolved\",\"board\":0,\"fpga\":0,\"upset_id\":{id},\"cause\":\"config\",\"latency_ns\":{},\"sensitive\":true,\"via\":\"scrub\"}}", u64::MAX)
        };
        let lines = [upset(1, 1), resolved(2, 1), upset(3, 2), resolved(4, 2)];
        let report = fold(&lines.each_ref().map(String::as_str)).unwrap();
        assert_eq!(report.unavailable_ns, u64::MAX);
        assert_eq!(report.vias["scrub"].sum_ns, u64::MAX);
    }

    #[test]
    fn from_raw_and_the_streamed_fold_agree() {
        let lines = [
            point(5, "scrub", ""),
            "{\"t_ns\":7,\"sev\":\"warning\",\"sub\":\"scrub\",\"name\":\"scrub.port_reset\",\"board\":0,\"fpga\":0}".to_string(),
        ];
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let streamed = MissionForensics::from_jsonl(&text).unwrap();
        let collected = MissionForensics::from_raw(&parse_jsonl(&text).unwrap()).unwrap();
        assert_eq!(streamed.to_json(), collected.to_json());
        assert_eq!(streamed.event_counts["scrub.port_reset"], 1);
        assert_eq!(streamed.soh_events, 1);
    }
}
