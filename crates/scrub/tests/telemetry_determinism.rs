//! The observability contract, pinned:
//!
//! 1. Telemetry **observes, never steers** — a recording sink must leave
//!    `MissionStats` bit-identical to the disabled default.
//! 2. The flight record is **deterministic** — the same seed flown twice
//!    produces byte-identical JSONL, and every line lints.
//! 3. The budgeted SOH downlink **counts what it sheds** — a constrained
//!    pass budget surfaces a nonzero `soh_shed_events`, never silence.
//! 4. The event stream is **complete** for the escalation ladder — rung
//!    events in the dump reconcile exactly with the ladder counters.

use std::collections::HashMap;

use cibola_arch::{Geometry, SimDuration, SimTime};
use cibola_forensics::{parse_jsonl, MissionForensics};
use cibola_netlist::{gen, implement};
use cibola_radiation::sefi::{SefiMix, SefiRates};
use cibola_radiation::{OrbitRates, SefiConfig, TargetMix};
use cibola_scrub::{
    run_mission, MissionConfig, MissionStats, Payload, SohDownlinkPolicy, Telemetry,
    SOH_RECORD_BYTES,
};

fn nine_fpga_payload(geom: &Geometry) -> Payload {
    let imp = implement(&gen::counter_adder(4), geom).expect("implementation fits tiny geometry");
    let mut payload = Payload::new();
    for board in 0..3 {
        for _ in 0..3 {
            payload.load_design(board, "ctr", geom, &imp.bitstream);
        }
    }
    payload
}

/// A 15-minute storm with the full SEFI process: port wedges, lying
/// readbacks and codebook corruption all fire, so every escalation rung
/// shows up in the record.
fn chaos_config() -> MissionConfig {
    MissionConfig {
        duration: SimDuration::from_secs(900),
        rates: OrbitRates {
            quiet_per_hour: 400.0,
            flare_per_hour: 3200.0,
            devices: 9,
        },
        mix: TargetMix::default(),
        flare: Some((SimTime::from_secs(200), SimTime::from_secs(500))),
        periodic_full_reconfig: Some(SimDuration::from_secs(300)),
        sefi: Some(SefiConfig {
            rates: SefiRates {
                quiet_per_hour: 40.0,
                flare_per_hour: 320.0,
                devices: 9,
            },
            mix: SefiMix::default(),
        }),
        seed: 42,
        soh_downlink: None,
    }
}

fn fly(cfg: &MissionConfig, telemetry: Telemetry) -> (MissionStats, Telemetry) {
    let geom = Geometry::tiny();
    let mut payload = nine_fpga_payload(&geom).with_telemetry(telemetry.clone());
    let stats = run_mission(&mut payload, cfg, &HashMap::new());
    (stats, telemetry)
}

#[test]
fn recording_sink_never_perturbs_mission_stats() {
    let cfg = chaos_config();
    let (null_stats, _) = fly(&cfg, Telemetry::disabled());
    let (rec_stats, telemetry) = fly(&cfg, Telemetry::recording());
    assert_eq!(
        null_stats, rec_stats,
        "recording telemetry changed the mission outcome"
    );
    assert!(
        !telemetry.events().is_empty(),
        "chaos mission produced no telemetry at all"
    );
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The chaos mission's dump, pinned across builds: its event count, byte
/// length and FNV-1a 64 digest. A writer change that alters every run's
/// bytes alike passes the flown-twice comparison but not these.
const CHAOS_DUMP_EVENTS: usize = 1_765;
const CHAOS_DUMP_BYTES: usize = 258_577;
const CHAOS_DUMP_FNV1A: u64 = 0x5dd7_3fa0_8868_c399;

#[test]
fn fixed_seed_dump_is_byte_identical_and_lints() {
    let cfg = chaos_config();
    let (_, t1) = fly(&cfg, Telemetry::recording());
    let (_, t2) = fly(&cfg, Telemetry::recording());
    let dump1 = t1.dump_jsonl();
    let dump2 = t2.dump_jsonl();
    assert!(!dump1.is_empty());
    assert_eq!(dump1, dump2, "same seed, different flight record");
    assert_eq!(
        (dump1.lines().count(), dump1.len(), fnv1a(dump1.as_bytes())),
        (CHAOS_DUMP_EVENTS, CHAOS_DUMP_BYTES, CHAOS_DUMP_FNV1A),
        "the pinned chaos dump changed"
    );
    // Every line reads through the one dump reader, and the stream meets
    // the whole emitter contract.
    MissionForensics::from_jsonl(&dump1).unwrap_or_else(|e| panic!("{e}"));
    // The metrics snapshot rides the same schema.
    parse_jsonl(&t1.snapshot_jsonl(cfg.duration.as_nanos())).unwrap();
    assert_eq!(t1.snapshot(), t2.snapshot(), "metrics diverged across runs");
}

#[test]
fn constrained_budget_sheds_and_counts() {
    // Two 16-byte records per 5-minute pass against storm rates: the
    // encoder *must* shed — and the mission stats must say so.
    let mut cfg = chaos_config();
    cfg.soh_downlink = Some(SohDownlinkPolicy::new(
        2 * SOH_RECORD_BYTES as u64,
        SimDuration::from_secs(300).as_nanos(),
        SOH_RECORD_BYTES as u64,
    ));
    let (stats, telemetry) = fly(&cfg, Telemetry::recording());
    assert!(
        stats.soh_downlink_passes > 0,
        "no passes planned: {stats:?}"
    );
    assert!(
        stats.soh_shed_events > 0,
        "a two-record pass budget shed nothing: {stats:?}"
    );
    // Shedding is an operator-visible warning in the record itself.
    let plan = telemetry
        .events()
        .into_iter()
        .find(|e| e.name == "downlink.plan")
        .expect("downlink plan event missing");
    assert_eq!(plan.severity, cibola_telemetry::Severity::Warning);

    // Downlink planning is post-hoc: dynamics must be untouched relative
    // to the unbudgeted mission.
    let (free_stats, _) = fly(&chaos_config(), Telemetry::disabled());
    assert_eq!(stats.upsets_total, free_stats.upsets_total);
    assert_eq!(stats.availability, free_stats.availability);
    assert_eq!(stats.ladder, free_stats.ladder);
}

#[test]
fn rung_events_reconcile_with_ladder_counters() {
    let cfg = chaos_config();
    let (stats, telemetry) = fly(&cfg, Telemetry::recording());
    let count = |name: &str| telemetry.events().iter().filter(|e| e.name == name).count();
    // These rungs log exactly one SOH event per counter increment, so the
    // dump must reconcile to the digit — a missing event means the ground
    // crew would reconstruct a different ladder than the one flown.
    assert_eq!(count("scrub.repair_retry"), stats.ladder.repair_retries);
    assert_eq!(
        count("scrub.codebook_rebuilt"),
        stats.ladder.codebook_rebuilds
    );
    assert_eq!(count("scrub.port_reset"), stats.ladder.port_resets);
    assert_eq!(
        count("scrub.device_degraded"),
        stats.ladder.devices_degraded
    );
    // The chaos regime exercises the rungs this test reconciles.
    assert!(
        stats.ladder.repair_retries > 0,
        "chaos too quiet: {stats:?}"
    );
    assert!(stats.ladder.codebook_rebuilds > 0);
    // A degraded device freezes a post-mortem timeline.
    if stats.ladder.devices_degraded > 0 {
        assert!(!telemetry.post_mortems().is_empty());
    }
}
