//! Replays a stride subset of the cross-engine conformance corpus on
//! every `cargo test`. The full ≥200-case corpus runs in CI (release)
//! via the `corpus_replay` binary; this smoke subset keeps the
//! cross-engine contract under the default test command without blowing
//! the debug-mode time budget.
//!
//! Override the stride with `CIBOLA_CORPUS_STRIDE` (1 = full corpus).

use std::collections::HashMap;
use std::path::PathBuf;

use cibola_bench::conformance::{all_cases, parse_manifest, run_case, CaseParams};

fn manifest() -> Vec<(String, String, u64)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/cases.tsv");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_manifest(&text).expect("manifest parses")
}

#[test]
fn manifest_covers_the_whole_corpus() {
    let cases = all_cases();
    let manifest = manifest();
    assert!(cases.len() >= 200, "corpus shrank to {}", cases.len());
    assert_eq!(
        manifest.len(),
        cases.len(),
        "manifest rows != corpus cases — re-bless with corpus_replay --bless"
    );
    for (case, (id, spec, _)) in cases.iter().zip(&manifest) {
        assert_eq!(&case.id, id, "corpus enumeration drifted from manifest");
        assert_eq!(&case.spec, spec, "case spec drifted for {}", case.id);
    }
}

#[test]
fn stride_subset_replays_bit_identical() {
    let stride: usize = std::env::var("CIBOLA_CORPUS_STRIDE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(23)
        .max(1);
    let cases = all_cases();
    let digests: HashMap<String, u64> = manifest()
        .into_iter()
        .map(|(id, _, digest)| (id, digest))
        .collect();

    let mut campaigns = 0usize;
    let mut missions = 0usize;
    let mut strategies = 0usize;
    for case in cases.iter().step_by(stride) {
        let outcome = run_case(case);
        assert!(
            outcome.engines_agree,
            "{}: engines diverged: {}",
            case.id, outcome.detail
        );
        assert_eq!(
            outcome.digest, digests[&case.id],
            "{}: digest drifted from the blessed manifest",
            case.id
        );
        match case.params {
            CaseParams::Campaign { .. } => campaigns += 1,
            CaseParams::Mission { .. } => missions += 1,
            CaseParams::Strategy { .. } => strategies += 1,
        }
    }
    assert!(
        campaigns >= 3 && missions >= 1 && strategies >= 1,
        "stride subset must cover every case kind \
         (got {campaigns} campaign, {missions} mission, {strategies} strategy)"
    );
}

#[test]
fn corpus_covers_every_strategy() {
    let cases = all_cases();
    for name in cibola_scrub::STRATEGY_NAMES {
        assert!(
            cases
                .iter()
                .any(|c| c.id.starts_with(&format!("strat-{name}-"))),
            "corpus has no case for strategy {name:?}"
        );
    }
}
