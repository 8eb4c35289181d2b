//! Per-fault lifecycle reconstruction.
//!
//! Fed a decoded stream one event at a time, in emission order, rebuilds
//! every injected fault's story: origin (`mission.upset` /
//! `mission.sefi`), the scrub-pipeline symptoms that referenced its
//! correlation id, and the close — a resolution (`*_resolved`, with the
//! repairing mechanism), or an end-of-mission leak (`*_leaked`), or
//! still open (legitimate only for SEFI classes that never produce an
//! outstanding fault, e.g. a consumed port lie).
//!
//! Reconstruction is strict where the emitter contract is strict: a
//! duplicate origin id, a close without an origin, or an upset left open
//! despite a `mission.end` roll-up are stream-corruption errors, not
//! warnings.

use std::collections::HashMap;

use crate::raw::{ForensicsError, IdSpace, RawEvent};

/// How a fault's lifecycle ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Repaired at `at_ns` after sitting outstanding for `latency_ns`,
    /// by mechanism `via` (`"scrub"` / `"periodic-reconfig"`).
    Resolved {
        at_ns: u64,
        latency_ns: u64,
        via: String,
    },
    /// Still outstanding when the mission ended, `age_ns` old.
    Leaked { age_ns: u64 },
    /// Never closed. Expected for port/codebook/readback SEFIs (their
    /// faults are consumed invisibly); an error for upsets once the
    /// stream carries `mission.end`.
    Open,
}

/// One injected fault's reconstructed story.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultLifecycle {
    pub space: IdSpace,
    pub id: u64,
    pub device: (u16, u16),
    /// Origin-event timestamp (the injection time).
    pub born_ns: u64,
    /// Cause class (`"config"`, `"half-latch"`, …) or SEFI kind
    /// (`"port-wedge"`, `"unprogram"`, …).
    pub cause: String,
    pub sensitive: bool,
    pub repairable: bool,
    /// Timestamp of the first scrub-pipeline event referencing this id.
    /// Scrub events within a round are stamped from the round's start,
    /// so this can precede `born_ns` for faults landing mid-round —
    /// detection latency clamps at zero.
    pub first_symptom_ns: Option<u64>,
    /// Scrub-pipeline events that referenced this id.
    pub symptom_count: usize,
    pub outcome: Outcome,
}

impl FaultLifecycle {
    /// Detection latency in ns (first symptom after injection), if the
    /// fault produced symptoms.
    pub fn detect_latency_ns(&self) -> Option<u64> {
        self.first_symptom_ns
            .map(|t| t.saturating_sub(self.born_ns))
    }
}

/// The reconstructed stream so far: every lifecycle in origin order plus
/// the singleton records the analyzer anchors against.
#[derive(Debug, Clone, Default)]
pub(crate) struct Reconstruction {
    pub lifecycles: Vec<FaultLifecycle>,
    /// `(space, id)` → index into `lifecycles`.
    index: HashMap<(IdSpace, u64), usize>,
    /// From `strategy.mission_begin`; absent for built-in missions.
    pub strategy: Option<String>,
    /// The `mission.end` roll-up event, when the stream carries one.
    pub mission_end: Option<RawEvent>,
    /// The `downlink.plan` summary, when SOH downlink was budgeted.
    pub downlink_plan: Option<RawEvent>,
}

fn origin_space(name: &str) -> Option<IdSpace> {
    match name {
        "mission.upset" => Some(IdSpace::Upset),
        "mission.sefi" => Some(IdSpace::Sefi),
        _ => None,
    }
}

fn close_space(name: &str) -> Option<(IdSpace, bool)> {
    match name {
        "mission.upset_resolved" => Some((IdSpace::Upset, false)),
        "mission.sefi_resolved" => Some((IdSpace::Sefi, false)),
        "mission.upset_leaked" => Some((IdSpace::Upset, true)),
        "mission.sefi_leaked" => Some((IdSpace::Sefi, true)),
        _ => None,
    }
}

impl Reconstruction {
    /// Take the next event of the stream: open, advance or close the
    /// lifecycle it names. Errors cite the event's line.
    pub fn push(&mut self, ev: &RawEvent) -> Result<(), ForensicsError> {
        let err = |message: String| ForensicsError {
            line: ev.line,
            message,
        };
        let name = ev.name();
        let missing = |what: &str| err(format!("{name} without {what}"));

        if let Some(space) = origin_space(name) {
            let id = ev
                .u64_field(space.key())
                .ok_or_else(|| missing(space.key()))?;
            let device = ev.device.ok_or_else(|| missing("a device"))?;
            if self.index.contains_key(&(space, id)) {
                return Err(err(format!("duplicate {} id {}", space.name(), id)));
            }
            let cause = match space {
                IdSpace::Upset => ev.str_field("cause"),
                IdSpace::Sefi => ev.str_field("kind"),
            }
            .ok_or_else(|| missing("a cause/kind"))?
            .to_string();
            // The SEFI origin event is lean; the unprogram class is the
            // one that creates an outstanding (sensitive, repairable)
            // device fault.
            let (sensitive, repairable) = match space {
                IdSpace::Upset => (
                    ev.bool_field("sensitive")
                        .ok_or_else(|| missing("sensitive"))?,
                    ev.bool_field("repairable")
                        .ok_or_else(|| missing("repairable"))?,
                ),
                IdSpace::Sefi => {
                    let unprogram = cause == "unprogram";
                    (unprogram, unprogram)
                }
            };
            self.index.insert((space, id), self.lifecycles.len());
            self.lifecycles.push(FaultLifecycle {
                space,
                id,
                device,
                born_ns: ev.t_ns,
                cause,
                sensitive,
                repairable,
                first_symptom_ns: None,
                symptom_count: 0,
                outcome: Outcome::Open,
            });
            return Ok(());
        }

        if let Some((space, leaked)) = close_space(name) {
            let id = ev
                .u64_field(space.key())
                .ok_or_else(|| missing(space.key()))?;
            let &idx = self
                .index
                .get(&(space, id))
                .ok_or_else(|| err(format!("{name} for unknown id {id}")))?;
            let lc = &mut self.lifecycles[idx];
            if lc.outcome != Outcome::Open {
                return Err(err(format!("{name} id {id} closed twice")));
            }
            lc.outcome = if leaked {
                Outcome::Leaked {
                    age_ns: ev.u64_field("age_ns").ok_or_else(|| missing("age_ns"))?,
                }
            } else {
                Outcome::Resolved {
                    at_ns: ev.t_ns,
                    latency_ns: ev
                        .u64_field("latency_ns")
                        .ok_or_else(|| missing("latency_ns"))?,
                    via: ev
                        .str_field("via")
                        .ok_or_else(|| missing("via"))?
                        .to_string(),
                }
            };
            return Ok(());
        }

        match name {
            "strategy.mission_begin" => {
                self.strategy = ev.str_field("strategy").map(str::to_string);
            }
            "mission.end" => {
                self.mission_end = Some(ev.clone());
            }
            "downlink.plan" => {
                self.downlink_plan = Some(ev.clone());
            }
            _ => {
                // Anything else carrying a correlation id is a symptom
                // of that fault. A reference without an origin is stream
                // corruption.
                if let Some((space, id)) = ev.correlation() {
                    let &idx = self.index.get(&(space, id)).ok_or_else(|| {
                        err(format!(
                            "{} references unknown {} id {}",
                            name,
                            space.name(),
                            id
                        ))
                    })?;
                    let lc = &mut self.lifecycles[idx];
                    lc.symptom_count += 1;
                    if lc.first_symptom_ns.is_none() {
                        lc.first_symptom_ns = Some(ev.t_ns);
                    }
                }
            }
        }
        Ok(())
    }

    /// Once a stream carrying the mission-end roll-up has ended, every
    /// upset and unprogram SEFI must have closed (a line-0 error if not).
    pub fn check_complete(&self) -> Result<(), ForensicsError> {
        let open = self.lifecycles.iter().find(|lc| {
            let must_close = lc.space == IdSpace::Upset || lc.cause == "unprogram";
            must_close && lc.outcome == Outcome::Open
        });
        match open {
            Some(lc) if self.mission_end.is_some() => Err(ForensicsError {
                line: 0,
                message: format!(
                    "{} id {} ({}) never resolved or leaked despite mission.end",
                    lc.space.name(),
                    lc.id,
                    lc.cause
                ),
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::parse_jsonl;

    fn ev(json: &str) -> String {
        json.to_string()
    }

    fn stream(lines: &[&str]) -> Result<Reconstruction, ForensicsError> {
        let text: String = lines.iter().map(|l| ev(l) + "\n").collect();
        let mut r = Reconstruction::default();
        for ev in parse_jsonl(&text).unwrap() {
            r.push(&ev)?;
        }
        r.check_complete()?;
        Ok(r)
    }

    fn lifecycle(r: &Reconstruction, space: IdSpace, id: u64) -> &FaultLifecycle {
        &r.lifecycles[r.index[&(space, id)]]
    }

    const UPSET: &str = "{\"t_ns\":10,\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.upset\",\"board\":0,\"fpga\":1,\"upset_id\":1,\"cause\":\"config\",\"sensitive\":true,\"repairable\":true}";

    #[test]
    fn reconstructs_a_resolved_upset() {
        let r = stream(&[
            UPSET,
            "{\"t_ns\":50,\"sev\":\"info\",\"sub\":\"scrub\",\"name\":\"scrub.frame_corrupt\",\"board\":0,\"fpga\":1,\"frame\":3,\"upset_id\":1}",
            "{\"t_ns\":180,\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.upset_resolved\",\"board\":0,\"fpga\":1,\"upset_id\":1,\"cause\":\"config\",\"latency_ns\":170,\"sensitive\":true,\"via\":\"scrub\"}",
        ])
        .unwrap();
        let lc = lifecycle(&r, IdSpace::Upset, 1);
        assert_eq!(lc.symptom_count, 1);
        assert_eq!(lc.first_symptom_ns, Some(50));
        assert_eq!(lc.detect_latency_ns(), Some(40));
        assert_eq!(
            lc.outcome,
            Outcome::Resolved {
                at_ns: 180,
                latency_ns: 170,
                via: "scrub".to_string()
            }
        );
    }

    #[test]
    fn rejects_dangling_and_duplicate_ids() {
        let dangling = stream(&[
            "{\"t_ns\":50,\"sev\":\"info\",\"sub\":\"scrub\",\"name\":\"scrub.frame_corrupt\",\"board\":0,\"fpga\":1,\"frame\":3,\"upset_id\":9}",
        ]);
        assert!(dangling.unwrap_err().message.contains("unknown upset id 9"));
        let dup = stream(&[UPSET, UPSET]);
        assert!(dup.unwrap_err().message.contains("duplicate upset id 1"));
    }

    #[test]
    fn errors_cite_the_dump_line_past_blank_lines() {
        let text = "\n\n{\"t_ns\":50,\"sev\":\"info\",\"sub\":\"scrub\",\"name\":\"scrub.frame_corrupt\",\"board\":0,\"fpga\":1,\"frame\":3,\"upset_id\":9}\n";
        let err = crate::MissionForensics::from_jsonl(text).unwrap_err();
        assert_eq!(err.line, 3, "{err}");
        assert!(err.message.contains("unknown upset id 9"));
    }

    #[test]
    fn open_upset_with_mission_end_is_corruption() {
        let r = stream(&[
            UPSET,
            "{\"t_ns\":0,\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.end\",\"dur_ns\":100,\"upsets_total\":1,\"detected\":0,\"unavailable_ns\":0,\"availability\":1.0}",
        ]);
        assert!(r.unwrap_err().message.contains("never resolved or leaked"));
    }

    #[test]
    fn open_port_sefi_is_fine_and_unprogram_is_sensitive() {
        let r = stream(&[
            "{\"t_ns\":5,\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.sefi\",\"board\":2,\"fpga\":0,\"sefi_id\":1,\"kind\":\"port-wedge\"}",
            "{\"t_ns\":7,\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.sefi\",\"board\":2,\"fpga\":0,\"sefi_id\":2,\"kind\":\"unprogram\"}",
            "{\"t_ns\":180,\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.sefi_resolved\",\"board\":2,\"fpga\":0,\"sefi_id\":2,\"cause\":\"unprogram\",\"latency_ns\":173,\"sensitive\":true,\"via\":\"scrub\"}",
            "{\"t_ns\":0,\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"mission.end\",\"dur_ns\":200,\"upsets_total\":0,\"detected\":0,\"unavailable_ns\":173,\"availability\":0.9}",
        ])
        .unwrap();
        assert_eq!(lifecycle(&r, IdSpace::Sefi, 1).outcome, Outcome::Open);
        let unprog = lifecycle(&r, IdSpace::Sefi, 2);
        assert!(unprog.sensitive && unprog.repairable);
    }
}
