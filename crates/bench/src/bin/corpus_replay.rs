//! Replays the cross-engine conformance corpus against its manifest.
//!
//! Every case runs the same seeded scenario through two independent
//! engines (scalar vs 64-lane campaigns; event-driven vs reference
//! missions), demands bit-identical results, and checks the result digest
//! against `tests/corpus/cases.tsv`. A digest mismatch means observable
//! behaviour changed — either a bug, or a contract change that must be
//! re-blessed deliberately with `--bless`.
//!
//! Usage: `cargo run --release -p cibola-bench --bin corpus_replay --
//!          [--bless] [--case camp-ctr6-v2-r1] [--stride 8] [--limit 40]
//!          [--manifest tests/corpus/cases.tsv]`

use std::time::Instant;

use cibola_bench::conformance::{
    all_cases, manifest_line, parse_manifest, run_case, MANIFEST_PATH,
};
use cibola_bench::Args;

fn main() {
    let args = Args::parse(
        &["--manifest", "--case", "--stride", "--limit"],
        &["--bless"],
    );
    let manifest_path = args.get("--manifest").unwrap_or(MANIFEST_PATH).to_string();
    let bless = args.flag("--bless");
    let case_filter = args.get("--case").map(str::to_string);
    let stride = args.usize("--stride", 1).max(1);
    let limit = args.usize("--limit", usize::MAX);

    let cases = all_cases();
    let started = Instant::now();

    if bless {
        let mut out = String::new();
        out.push_str("# Cross-engine conformance corpus manifest.\n");
        out.push_str("# Regenerate with: cargo run --release -p cibola-bench --bin corpus_replay -- --bless\n");
        out.push_str("# id\tspec\tdigest (FNV-1a 64 over the canonical result)\n");
        for (i, case) in cases.iter().enumerate() {
            let outcome = run_case(case);
            assert!(
                outcome.engines_agree,
                "cannot bless a diverging case {}: {}",
                case.id, outcome.detail
            );
            out.push_str(&manifest_line(case, outcome.digest));
            out.push('\n');
            if (i + 1) % 50 == 0 {
                eprintln!(
                    "[bless] {}/{} cases ({:.1}s)",
                    i + 1,
                    cases.len(),
                    started.elapsed().as_secs_f64()
                );
            }
        }
        if let Some(dir) = std::path::Path::new(&manifest_path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&manifest_path, out)
            .unwrap_or_else(|e| panic!("cannot write {manifest_path}: {e}"));
        println!(
            "blessed {} cases → {} ({:.1}s)",
            cases.len(),
            manifest_path,
            started.elapsed().as_secs_f64()
        );
        return;
    }

    let text = std::fs::read_to_string(&manifest_path).unwrap_or_else(|e| {
        panic!("cannot read {manifest_path}: {e} (run with --bless to create it)")
    });
    let manifest = parse_manifest(&text).unwrap_or_else(|e| panic!("bad manifest: {e}"));
    assert_eq!(
        manifest.len(),
        cases.len(),
        "manifest has {} rows but the corpus enumerates {} cases — re-bless after \
         changing the corpus definition",
        manifest.len(),
        cases.len()
    );

    let mut ran = 0usize;
    let mut failures = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        if let Some(ref only) = case_filter {
            if &case.id != only {
                continue;
            }
        } else if i % stride != 0 {
            continue;
        }
        if ran >= limit {
            break;
        }
        let (mid, mspec, mdigest) = &manifest[i];
        if mid != &case.id || mspec != &case.spec {
            failures.push(format!(
                "{}: manifest row {i} is {mid} ({mspec}) — corpus enumeration drifted",
                case.id
            ));
            continue;
        }
        let outcome = run_case(case);
        ran += 1;
        if !outcome.engines_agree {
            failures.push(format!("{}: ENGINES DIVERGED: {}", case.id, outcome.detail));
        } else if outcome.digest != *mdigest {
            failures.push(format!(
                "{}: digest {:016x} != manifest {:016x} (behaviour changed; re-bless if intended)",
                case.id, outcome.digest, mdigest
            ));
        }
        if ran % 50 == 0 {
            eprintln!(
                "[replay] {ran} cases, {} failures ({:.1}s)",
                failures.len(),
                started.elapsed().as_secs_f64()
            );
        }
    }

    for f in &failures {
        eprintln!("FAIL {f}");
    }
    println!(
        "replayed {ran}/{} cases: {} ok, {} failed ({:.1}s)",
        cases.len(),
        ran.saturating_sub(failures.len()),
        failures.len(),
        started.elapsed().as_secs_f64()
    );
    assert!(ran > 0, "case filter matched nothing");
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
