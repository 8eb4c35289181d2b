//! Mission-health anomaly detectors over the reconstructed stream.

//!
//! Each detector encodes one pathology the paper's operations story
//! cares about: faults the scrub pipeline never cleared, devices
//! bouncing up and down the escalation ladder, an adaptive controller
//! oscillating instead of settling, and an SOH downlink so oversubscribed
//! it sheds the history the ground would need for this very analysis.

use std::collections::BTreeMap;

use crate::lifecycle::Outcome;
use crate::raw::RawEvent;
use crate::report::MissionForensics;

/// One detected pathology. `kind` is a stable machine tag; `detail` is
/// deterministic prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    pub kind: &'static str,
    pub device: Option<(u16, u16)>,
    pub detail: String,
}

/// Heavy-recovery SOH events whose repetition marks ladder thrash.
const THRASH_EVENTS: [&str; 3] = [
    "scrub.full_reconfig",
    "scrub.port_reset",
    "scrub.device_degraded",
];

/// Thrash window width and trigger count: ≥4 heavy recoveries within
/// any 10 simulated seconds on one device.
const THRASH_WINDOW_NS: u64 = 10_000_000_000;
const THRASH_COUNT: usize = 4;

/// Retune direction sign-flips that count as oscillation rather than
/// convergence.
const OSCILLATION_FLIPS: usize = 3;

/// Shed fraction at which the downlink plan is a storm even without
/// critical losses.
const SHED_STORM_FRACTION: f64 = 0.5;

/// What the detectors read from the stream, gathered as the fold passes:
/// heavy-recovery times per device, and the retune direction flips.
#[derive(Debug, Clone, Default)]
pub(crate) struct AnomalyInputs {
    heavy: BTreeMap<(u16, u16), Vec<u64>>,
    retunes: usize,
    flips: usize,
    /// The last retune's direction (0 before the first).
    prev_dir: i8,
}

impl AnomalyInputs {
    pub fn observe(&mut self, ev: &RawEvent) {
        let name = ev.name();
        if name == "strategy.retune" {
            self.retunes += 1;
            let k_old = ev.u64_field("k_old").unwrap_or(0);
            let k_new = ev.u64_field("k_new").unwrap_or(0);
            let dir: i8 = if k_new > k_old { 1 } else { -1 };
            if self.prev_dir != 0 && dir != self.prev_dir {
                self.flips += 1;
            }
            self.prev_dir = dir;
        } else if THRASH_EVENTS.contains(&name) {
            if let Some(dev) = ev.device {
                self.heavy.entry(dev).or_default().push(ev.t_ns);
            }
        }
    }
}

/// Run every detector, in a fixed order, producing a deterministic list.
pub(crate) fn detect_anomalies(inputs: &AnomalyInputs, report: &MissionForensics) -> Vec<Anomaly> {
    let mut out = Vec::new();

    // 1. Unresolved-fault leaks: lifecycles still outstanding at
    // mission end, in origin order.
    for lc in &report.lifecycles {
        if let Outcome::Leaked { age_ns } = lc.outcome {
            out.push(Anomaly {
                kind: "unresolved-leak",
                device: Some(lc.device),
                detail: format!(
                    "{} {} id {} outstanding {:.3} ms at mission end{}",
                    lc.cause,
                    lc.space.name(),
                    lc.id,
                    age_ns as f64 / 1e6,
                    if lc.sensitive { " (sensitive)" } else { "" }
                ),
            });
        }
    }

    // 2. Ladder thrash: repeated heavy recoveries on one device inside a
    // sliding window. Per-device scrub timestamps are monotonic, so a
    // two-pointer sweep finds the densest window. (The fold checks order
    // per subsystem; a heavy event filed under another subsystem may step
    // back, and the saturating gap keeps such a stream from panicking.)
    for (dev, times) in &inputs.heavy {
        let mut best = 0usize;
        let mut best_start = 0u64;
        let mut lo = 0usize;
        for hi in 0..times.len() {
            while times[hi].saturating_sub(times[lo]) > THRASH_WINDOW_NS {
                lo += 1;
            }
            if hi - lo + 1 > best {
                best = hi - lo + 1;
                best_start = times[lo];
            }
        }
        if best >= THRASH_COUNT {
            out.push(Anomaly {
                kind: "ladder-thrash",
                device: Some(*dev),
                detail: format!(
                    "{best} heavy recoveries within {:.0} s starting t={:.3} s",
                    THRASH_WINDOW_NS as f64 / 1e9,
                    best_start as f64 / 1e9
                ),
            });
        }
    }

    // 3. Adaptive scrub-rate oscillation: the controller's retune
    // direction flipping sign repeatedly means it is chasing the noise
    // floor rather than converging on a rate.
    let (flips, retunes) = (inputs.flips, inputs.retunes);
    if flips >= OSCILLATION_FLIPS {
        out.push(Anomaly {
            kind: "scrub-rate-oscillation",
            device: None,
            detail: format!("{flips} retune direction flips across {retunes} retunes"),
        });
    }

    // 4. SOH shed storm: the downlink budget lost half the history, or
    // lost anything critical.
    if let Some(plan) = &report.downlink {
        let sent = plan.u64_field("sent").unwrap_or(0);
        let shed = plan.u64_field("shed").unwrap_or(0);
        let shed_critical = plan.u64_field("shed_critical").unwrap_or(0);
        let total = sent + shed;
        let fraction = if total == 0 {
            0.0
        } else {
            shed as f64 / total as f64
        };
        if shed_critical > 0 || fraction >= SHED_STORM_FRACTION {
            out.push(Anomaly {
                kind: "soh-shed-storm",
                device: None,
                detail: format!(
                    "shed {shed}/{total} SOH events ({:.1}%), {shed_critical} critical",
                    fraction * 100.0
                ),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use crate::report::MissionForensics;

    fn mk(lines: &[String]) -> MissionForensics {
        let text: String = lines.iter().map(|l| l.clone() + "\n").collect();
        MissionForensics::from_jsonl(&text).unwrap()
    }

    fn heavy_line(t_ns: u64) -> String {
        format!(
            "{{\"t_ns\":{t_ns},\"sev\":\"warning\",\"sub\":\"scrub\",\"name\":\"scrub.port_reset\",\"board\":0,\"fpga\":0}}"
        )
    }

    #[test]
    fn thrash_fires_only_when_dense() {
        let sparse: Vec<String> = (0..6).map(|i| heavy_line(i * 20_000_000_000)).collect();
        assert!(mk(&sparse).anomalies.is_empty());
        let dense: Vec<String> = (0..4).map(|i| heavy_line(i * 2_000_000_000)).collect();
        let r = mk(&dense);
        assert_eq!(r.anomalies.len(), 1);
        assert_eq!(r.anomalies[0].kind, "ladder-thrash");
    }

    #[test]
    fn thrash_tolerates_a_device_whose_heavy_events_span_two_streams() {
        // Each (device, subsystem) stream is in order, but the device's
        // heavy times step back.
        let other = heavy_line(50).replace("\"sub\":\"scrub\"", "\"sub\":\"mission\"");
        assert!(mk(&[heavy_line(100), other]).anomalies.is_empty());
    }

    #[test]
    fn oscillation_counts_direction_flips() {
        let retune = |t: u64, k_old: u64, k_new: u64| {
            format!(
                "{{\"t_ns\":{t},\"sev\":\"info\",\"sub\":\"mission\",\"name\":\"strategy.retune\",\"k_old\":{k_old},\"k_new\":{k_new},\"window\":0,\"upsets\":1}}"
            )
        };
        // up, down, up, down: 3 flips → fires.
        let osc = vec![
            retune(1, 4, 8),
            retune(2, 8, 4),
            retune(3, 4, 8),
            retune(4, 8, 4),
        ];
        let r = mk(&osc);
        assert_eq!(r.anomalies.len(), 1);
        assert_eq!(r.anomalies[0].kind, "scrub-rate-oscillation");
        // Monotonic convergence: no flips → quiet.
        let conv = vec![retune(1, 32, 16), retune(2, 16, 8), retune(3, 8, 4)];
        assert!(mk(&conv).anomalies.is_empty());
    }

    #[test]
    fn shed_storm_fires_on_fraction_or_critical_loss() {
        let plan = |sent: u64, shed: u64, crit: u64| {
            vec![format!(
                "{{\"t_ns\":100,\"sev\":\"warning\",\"sub\":\"downlink\",\"name\":\"downlink.plan\",\"passes\":2,\"sent\":{sent},\"shed\":{shed},\"shed_critical\":{crit}}}"
            )]
        };
        assert_eq!(mk(&plan(10, 90, 0)).anomalies[0].kind, "soh-shed-storm");
        assert_eq!(mk(&plan(99, 1, 1)).anomalies[0].kind, "soh-shed-storm");
        assert!(mk(&plan(99, 1, 0)).anomalies.is_empty());
    }
}
