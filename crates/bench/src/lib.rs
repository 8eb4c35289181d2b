//! The cibola experiment layer: the one runner behind every paper table
//! and figure (`verify_experiments`; DESIGN.md §3 and EXPERIMENTS.md hold
//! the index), its shape claims, and the cross-engine corpus:
//!
//! * [`experiments`] — tiered runners for every EXPERIMENTS.md entry
//!   (E1–E13, A1–A3). Each returns a measurement struct *and* the
//!   rendered text report, so `results/*.txt`, the golden snapshots and
//!   the claims come from one implementation.
//! * [`claims`] — machine-checked shape claims with stable IDs
//!   (`E1-MULT-LFSR-RATIO`, …) evaluated by `verify_experiments` and
//!   written to `results/verify_summary.json`.
//! * [`conformance`] — the seeded cross-engine corpus replayed by
//!   `corpus_replay` and the `corpus_smoke` test: scalar vs wide
//!   campaigns, event-driven vs reference missions, bit-identical.

use cibola::prelude::*;

pub mod claims;
pub mod conformance;
pub mod experiments;

/// Command-line arguments read against what a binary accepts: each of
/// its `flags` takes the argument after it as its value, each of its
/// `switches` takes none. One pass pairs every flag with its value, and
/// [`get`](Self::get) and [`flag`](Self::flag) read those pairs, so a
/// value is never read as a flag nor a flag as another's value. A typed
/// value that does not parse, a flag with no value or an argument the
/// binary does not know is an error: the binary prints
/// `error: <flag> <value>: <reason>` and exits with status 2 rather than
/// run with a default the user did not ask for.
#[derive(Debug)]
pub struct Args {
    /// Each flag and switch given, in order, with its value (`None` for a
    /// switch).
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    /// The process's arguments (the program name excluded), read as
    /// [`read`](Self::read) reads them.
    pub fn parse(flags: &[&str], switches: &[&str]) -> Self {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        Self::read(&raw, flags, switches)
    }

    /// `raw` read against `flags` and `switches`; exit 2 on an argument
    /// that is neither, or on a flag with no value.
    pub fn read(raw: &[String], flags: &[&str], switches: &[&str]) -> Self {
        Self::try_read(raw, flags, switches).unwrap_or_else(|e| exit_usage(&e))
    }

    fn try_read(raw: &[String], flags: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut rest = raw.iter();
        while let Some(arg) = rest.next() {
            if flags.contains(&arg.as_str()) {
                let value = rest.next().ok_or_else(|| format!("{arg}: missing value"))?;
                pairs.push((arg.clone(), Some(value.clone())));
            } else if switches.contains(&arg.as_str()) {
                pairs.push((arg.clone(), None));
            } else {
                let known: Vec<&str> = flags.iter().chain(switches).copied().collect();
                return Err(format!(
                    "{arg}: unknown argument (expected {})",
                    known.join(", ")
                ));
            }
        }
        Ok(Args { pairs })
    }

    /// The value the first `key` flag was given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether `key` was given as a flag or switch, not as a value.
    pub fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    /// `key`'s value parsed as a `T`, or `default` when the flag is
    /// absent.
    fn value<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("{key} {v}: {e}")),
        }
    }

    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.value(key, default).unwrap_or_else(|e| exit_usage(&e))
    }

    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.value(key, default).unwrap_or_else(|e| exit_usage(&e))
    }
}

/// Report a command-line error and exit with status 2.
fn exit_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Percent formatting.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// A horizontal rule of `n` dashes (the table separators every report
/// prints).
pub fn rule(n: usize) -> String {
    "-".repeat(n)
}

/// The standard nine-FPGA payload (three boards of three devices), every
/// position loaded with the same implementation — the configuration the
/// paper flew, and the payload the conformance corpus and the benchmark's
/// storm workload build.
pub fn nine_fpga_payload(geom: &Geometry, imp: &Implementation, label: &str) -> Payload {
    let mut payload = Payload::new();
    for board in 0..3 {
        for _ in 0..3 {
            payload.load_design(board, label, geom, &imp.bitstream);
        }
    }
    payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    /// `raw` read against every flag these tests use.
    fn args(raw: &[&str]) -> Result<Args, String> {
        let flags = ["--hours", "--stride", "--max-t-ns", "--limit", "--trace"];
        Args::try_read(&strings(raw), &flags, &[])
    }

    #[test]
    fn typed_values_parse_or_default() {
        let a = args(&["--hours", "6", "--stride", "3"]).unwrap();
        assert_eq!(a.value("--hours", 12usize), Ok(6));
        assert_eq!(a.value("--stride", 1usize), Ok(3));
        // telemetry_lint reads the arguments after its dump's path.
        let t = args(&["--max-t-ns", "7260000000000"]).unwrap();
        assert_eq!(t.value("--max-t-ns", u64::MAX), Ok(7_260_000_000_000));
        assert_eq!(a.value("--limit", 40usize), Ok(40), "absent flag");
    }

    #[test]
    fn malformed_values_are_errors() {
        let value = |raw: &[&str], key: &str| args(raw).unwrap().value(key, 1usize);
        assert_eq!(
            value(&["--hours", "1.5"], "--hours"),
            Err("--hours 1.5: invalid digit found in string".to_string())
        );
        assert_eq!(
            value(&["--stride", "x"], "--stride"),
            Err("--stride x: invalid digit found in string".to_string())
        );
        assert_eq!(
            args(&["--max-t-ns", "abc"])
                .unwrap()
                .value("--max-t-ns", u64::MAX),
            Err("--max-t-ns abc: invalid digit found in string".to_string())
        );
    }

    #[test]
    fn missing_values_are_errors() {
        assert_eq!(
            args(&["--trace"]).and_then(|a| a.value("--trace", 96usize)),
            Err("--trace: missing value".to_string())
        );
        assert_eq!(
            args(&["--max-t-ns"]).and_then(|a| a.value("--max-t-ns", u64::MAX)),
            Err("--max-t-ns: missing value".to_string())
        );
        assert_eq!(
            Args::try_read(
                &strings(&["--tier", "paper", "--reports"]),
                &["--tier", "--reports"],
                &[]
            )
            .map(drop),
            Err("--reports: missing value".to_string())
        );
    }

    #[test]
    fn unknown_arguments_are_errors() {
        let known = |raw: &[&str]| {
            Args::try_read(&strings(raw), &["--case", "--stride"], &["--bless"]).map(drop)
        };
        assert_eq!(
            known(&["--bless", "--case", "--bless", "--stride", "8"]),
            Ok(())
        );
        assert_eq!(
            known(&["--case", "x", "--print-reports"]),
            Err(
                "--print-reports: unknown argument (expected --case, --stride, --bless)"
                    .to_string()
            )
        );
        assert_eq!(
            known(&["x"]),
            Err("x: unknown argument (expected --case, --stride, --bless)".to_string())
        );
    }

    #[test]
    fn a_value_that_spells_a_flag_is_read_as_the_value() {
        let (flags, switches) = BINARIES[0];
        let replay = Args::try_read(&strings(&["--case", "--bless"]), flags, switches).unwrap();
        assert_eq!(replay.get("--case"), Some("--bless"));
        assert!(!replay.flag("--bless"), "--bless is --case's value");
        let (flags, switches) = BINARIES[1];
        let raw = strings(&["--reports", "--only", "--tier", "paper"]);
        let verify = Args::try_read(&raw, flags, switches).unwrap();
        assert_eq!(verify.get("--reports"), Some("--only"));
        assert_eq!(verify.get("--only"), None);
        assert_eq!(verify.get("--tier"), Some("paper"));
    }

    /// The flags and switches of `corpus_replay`, `verify_experiments` and
    /// `telemetry_lint`, as each binary declares them.
    const BINARIES: [(&[&str], &[&str]); 3] = [
        (
            &["--manifest", "--case", "--stride", "--limit"],
            &["--bless"],
        ),
        (&["--tier", "--only", "--reports", "--out"], &[]),
        (&["--max-t-ns"], &[]),
    ];

    /// Arguments no binary declares.
    const JUNK: [&str; 8] = [
        "",
        "x",
        "-",
        "--",
        "8",
        "--print-reports",
        "--bless=1",
        "-5",
    ];

    /// Token `pick` of a binary's flags, then its switches, then [`JUNK`].
    fn token(flags: &[&'static str], switches: &[&'static str], pick: usize) -> &'static str {
        let all: Vec<&str> = flags.iter().chain(switches).chain(&JUNK).copied().collect();
        all[pick % all.len()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// An argv laid out from flags with any value and switches reads
        /// back each flag's first value and exactly the keys laid out.
        #[test]
        fn prop_argv_built_from_pairs_reads_back_its_pairs(
            binary in 0usize..3,
            items in vec((any::<bool>(), any::<usize>(), any::<usize>()), 0..8),
        ) {
            let (flags, switches) = BINARIES[binary];
            let mut raw = Vec::new();
            let mut laid: Vec<(&str, Option<&str>)> = Vec::new();
            for &(is_flag, key, value) in &items {
                if is_flag || switches.is_empty() {
                    let (key, value) = (flags[key % flags.len()], token(flags, switches, value));
                    raw.extend([key, value]);
                    laid.push((key, Some(value)));
                } else {
                    let key = switches[key % switches.len()];
                    raw.push(key);
                    laid.push((key, None));
                }
            }
            let args = Args::try_read(&strings(&raw), flags, switches);
            prop_assert!(args.is_ok(), "{:?}: {:?}", raw, args);
            let args = args.unwrap();
            for &key in flags.iter().chain(switches) {
                let first = laid.iter().find(|(k, _)| *k == key);
                prop_assert_eq!(args.flag(key), first.is_some(), "{:?} in {:?}", key, raw);
                prop_assert_eq!(args.get(key), first.and_then(|(_, v)| *v), "{:?} in {:?}", key, raw);
            }
        }

        /// Any argv of a binary's flags, switches and junk reads or fails
        /// without a panic. A read lays its pairs end to end into exactly
        /// the argv, so no argument is read twice or skipped; a failure
        /// names the argument it stopped at.
        #[test]
        fn prop_any_argv_reads_its_pairs_or_fails(
            binary in 0usize..3,
            picks in vec(any::<usize>(), 0..10),
        ) {
            let (flags, switches) = BINARIES[binary];
            let raw: Vec<&str> = picks.iter().map(|&p| token(flags, switches, p)).collect();
            match Args::try_read(&strings(&raw), flags, switches) {
                Ok(args) => {
                    let laid: Vec<&str> = args
                        .pairs
                        .iter()
                        .flat_map(|(k, v)| std::iter::once(k.as_str()).chain(v.as_deref()))
                        .collect();
                    prop_assert_eq!(&laid, &raw);
                    for (k, v) in &args.pairs {
                        prop_assert!(flags.contains(&k.as_str()) == v.is_some(), "{:?}", args);
                    }
                }
                Err(e) => prop_assert!(
                    raw.iter().any(|a| e.starts_with(&format!("{a}: "))),
                    "{} for {:?}", e, raw
                ),
            }
        }
    }
}
