//! Orbit mission: the nine-FPGA reconfigurable radio payload flying a
//! simulated day in LEO, including a solar-flare window (paper §I–II).
//!
//! Run with: `cargo run --release -p cibola --example orbit_mission`
//!
//! Pass `--telemetry out.jsonl` to fly the same mission with the flight
//! recorder attached: every scrub/escalation event is dumped as JSONL
//! (plus a final metrics-snapshot line), the SOH downlink is planned
//! under a deliberately tight per-pass byte budget so shedding is
//! visible, and any captured post-mortem timeline is walked on stdout.

use std::collections::HashMap;

use cibola::prelude::*;
use cibola::scrub::{SohEvent, SOH_RECORD_BYTES};

fn main() {
    let geom = Geometry::tiny();

    let mut cli = std::env::args().skip(1);
    let mut telemetry_path: Option<String> = None;
    while let Some(arg) = cli.next() {
        if arg == "--telemetry" {
            telemetry_path = Some(cli.next().expect("--telemetry needs an output path"));
        }
    }
    let telemetry = if telemetry_path.is_some() {
        Telemetry::recording()
    } else {
        Telemetry::disabled()
    };

    // Nine designs across three boards — the radio's signal-processing
    // complement (scaled to the demo device).
    let designs = [
        cibola::designs::PaperDesign::FilterPreproc {
            taps: 4,
            sample_bits: 4,
        },
        cibola::designs::PaperDesign::Mult { width: 4 },
        cibola::designs::PaperDesign::CounterAdder { width: 6 },
    ];

    let mut payload = Payload::new().with_telemetry(telemetry.clone());
    let mut sensitivity = HashMap::new();
    for board in 0..3 {
        for d in &designs {
            let nl = d.netlist();
            let imp = implement(&nl, &geom).unwrap();

            // Characterise the design's sensitive bits with the SEU
            // simulator first — mission availability accounting uses it.
            let tb = Testbed::new(&imp, 7, 48);
            let campaign = run_campaign_wide(
                &tb,
                &CampaignConfig {
                    observe_cycles: 24,
                    classify_persistence: false,
                    ..Default::default()
                },
            );
            let pos = payload.load_design(board, &d.label(), &geom, &imp.bitstream);
            println!(
                "board {} fpga {}: {:<18} sensitivity {:.2}%",
                pos.0,
                pos.1,
                d.label(),
                100.0 * campaign.sensitivity()
            );
            sensitivity.insert(pos, campaign.sensitive_set());
        }
    }

    // 24 simulated hours by default (ORBIT_HOURS=n shortens it — CI flies
    // a 2 h orbit so the step stays quick); upset rates accelerated ~100×
    // over the paper's 1.2/h so a demo run has events to show. The SEFI
    // process (port lock-ups, lying readbacks, codebook upsets) flies at
    // the same acceleration of its paper-scale rates, ≈60× below the SEU
    // rate. The flare window scales with the mission: hours/4 → hours/3.
    let hours: u64 = std::env::var("ORBIT_HOURS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    let secs = hours * 3600;
    let cfg = MissionConfig {
        duration: SimDuration::from_secs(secs),
        rates: OrbitRates {
            quiet_per_hour: 120.0,
            flare_per_hour: 960.0,
            devices: 9,
        },
        flare: Some((SimTime::from_secs(secs / 4), SimTime::from_secs(secs / 3))),
        periodic_full_reconfig: Some(SimDuration::from_secs(3600)),
        sefi: Some(cibola::radiation::SefiConfig {
            rates: cibola::radiation::SefiRates {
                quiet_per_hour: 2.0,
                flare_per_hour: 16.0,
                devices: 9,
            },
            ..Default::default()
        }),
        // In telemetry mode, plan the SOH backlog onto 15-minute ground
        // passes carrying only six 16-byte records each — deliberately
        // tight against the accelerated upset rates, so the budgeted
        // encoder has something to shed and account for.
        soh_downlink: telemetry_path.as_ref().map(|_| {
            SohDownlinkPolicy::new(
                6 * SOH_RECORD_BYTES as u64,
                SimDuration::from_secs(15 * 60).as_nanos(),
                SOH_RECORD_BYTES as u64,
            )
        }),
        ..Default::default()
    };
    let stats = run_mission(&mut payload, &cfg, &sensitivity);

    println!(
        "\n── mission summary ({hours} h LEO, flare at hour {}–{}) ──",
        hours / 4,
        hours / 3
    );
    println!(
        "upsets: {} total ({} config, {} masked-frame, {} half-latch, {} user-FF, {} config-FSM)",
        stats.upsets_total,
        stats.upsets_config,
        stats.upsets_config_masked,
        stats.upsets_half_latch,
        stats.upsets_user_ff,
        stats.upsets_fsm
    );
    println!(
        "scrubbing: {} frames repaired, {} full reconfigs, scan cycle {:.1} ms",
        stats.frames_repaired, stats.full_reconfigs, stats.scan_cycle_ms
    );
    println!(
        "detection latency: mean {:.1} ms, max {:.1} ms",
        stats.detect_latency_mean_ms, stats.detect_latency_max_ms
    );
    println!(
        "availability: {:.5} ({} ms unavailable across 9 devices)",
        stats.availability, stats.unavailable_ms as u64
    );
    println!(
        "fault-management path: {} SEFIs injected ({} observed by the scrubber), {} codebook upset(s)",
        stats.sefis_injected, stats.ladder.sefis_observed, stats.codebook_upsets
    );
    println!(
        "escalation ladder: {} verify failures, {} retries, {} codebook rebuilds, {} port resets, {} frames escalated, {} devices degraded",
        stats.ladder.verify_failures,
        stats.ladder.repair_retries,
        stats.ladder.codebook_rebuilds,
        stats.ladder.port_resets,
        stats.ladder.frames_escalated,
        stats.ladder.devices_degraded
    );

    println!("\nfirst state-of-health records downlinked:");
    for r in payload.soh.iter().take(8) {
        let t = SimTime(r.time_ns);
        match r.event {
            SohEvent::FrameCorrupt { frame_index } => {
                println!(
                    "  {t} board {} fpga {} frame {frame_index} CORRUPT",
                    r.board, r.fpga
                )
            }
            SohEvent::FrameRepaired { frame_index } => {
                println!(
                    "  {t} board {} fpga {} frame {frame_index} repaired",
                    r.board, r.fpga
                )
            }
            SohEvent::FullReconfig => {
                println!(
                    "  {t} board {} fpga {} FULL RECONFIGURATION",
                    r.board, r.fpga
                )
            }
            SohEvent::FlashCorrected { words } => {
                println!(
                    "  {t} board {} fpga {} flash ECC corrected {words} word(s)",
                    r.board, r.fpga
                )
            }
            SohEvent::PortSefi { wedged } => {
                println!(
                    "  {t} board {} fpga {} PORT SEFI{}",
                    r.board,
                    r.fpga,
                    if wedged { " (wedged)" } else { "" }
                )
            }
            SohEvent::CodebookCorrupt => {
                println!("  {t} board {} fpga {} CODEBOOK CORRUPT", r.board, r.fpga)
            }
            SohEvent::CodebookRebuilt => {
                println!(
                    "  {t} board {} fpga {} codebook rebuilt from FLASH",
                    r.board, r.fpga
                )
            }
            other => println!("  {t} board {} fpga {} {other:?}", r.board, r.fpga),
        }
    }

    if let Some(path) = telemetry_path {
        println!(
            "\n── flight recorder ──\nSOH downlink: {} pass(es), {} event(s) shed for budget",
            stats.soh_downlink_passes, stats.soh_shed_events
        );
        for pm in telemetry.post_mortems() {
            println!(
                "post-mortem: board {} fpga {} degraded at {} (trigger {})",
                pm.board,
                pm.fpga,
                SimTime(pm.t_ns),
                pm.trigger
            );
            for ev in &pm.timeline {
                println!(
                    "  {} {} [{}]",
                    SimTime(ev.t_ns),
                    ev.name,
                    ev.severity.name()
                );
            }
        }
        let mut dump = telemetry.dump_jsonl();
        dump.push_str(&telemetry.snapshot_jsonl(cfg.duration.as_nanos()));
        dump.push('\n');
        let lines = dump.lines().count();
        std::fs::write(&path, dump).expect("write telemetry dump");
        println!("wrote {lines} JSONL line(s) to {path}");
    }
}
