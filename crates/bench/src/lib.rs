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

/// Parse `--key value` style arguments with defaults. A typed value that
/// does not parse, a flag with no value or an argument the binary does not
/// know is an error: the binary prints `error: <flag> <value>: <reason>`
/// and exits with status 2 rather than run with a default the user did
/// not ask for.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Self {
        Self::from_vec(std::env::args().skip(1).collect())
    }

    /// Arguments from a list (the program name excluded).
    fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }

    /// `key`'s value parsed as a `T`, or `default` when the flag is
    /// absent.
    fn value<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        if !self.flag(key) {
            return Ok(default);
        }
        let v = self
            .get(key)
            .ok_or_else(|| format!("{key}: missing value"))?;
        v.parse().map_err(|e| format!("{key} {v}: {e}"))
    }

    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.value(key, default).unwrap_or_else(|e| exit_usage(&e))
    }

    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.value(key, default).unwrap_or_else(|e| exit_usage(&e))
    }

    pub fn flag(&self, key: &str) -> bool {
        self.raw.iter().any(|a| a == key)
    }

    /// Exit 2 on an argument that is neither one of `flags` with its
    /// value nor one of `switches`, or on one of `flags` with no value, so
    /// a mistyped or retired flag cannot run with defaults the user did
    /// not ask for.
    pub fn reject_unknown(&self, flags: &[&str], switches: &[&str]) {
        if let Err(e) = self.check_known(flags, switches) {
            exit_usage(&e);
        }
    }

    fn check_known(&self, flags: &[&str], switches: &[&str]) -> Result<(), String> {
        let mut rest = self.raw.iter();
        while let Some(arg) = rest.next() {
            if flags.contains(&arg.as_str()) {
                if rest.next().is_none() {
                    return Err(format!("{arg}: missing value"));
                }
            } else if !switches.contains(&arg.as_str()) {
                let known: Vec<&str> = flags.iter().chain(switches).copied().collect();
                return Err(format!(
                    "{arg}: unknown argument (expected {})",
                    known.join(", ")
                ));
            }
        }
        Ok(())
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

    fn args(raw: &[&str]) -> Args {
        Args::from_vec(raw.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn typed_values_parse_or_default() {
        let a = args(&["--hours", "6", "--stride", "3"]);
        assert_eq!(a.value("--hours", 12usize), Ok(6));
        assert_eq!(a.value("--stride", 1usize), Ok(3));
        let t = args(&["dump.jsonl", "--max-t-ns", "7260000000000"]);
        assert_eq!(t.value("--max-t-ns", u64::MAX), Ok(7_260_000_000_000));
        assert_eq!(a.value("--limit", 40usize), Ok(40), "absent flag");
    }

    #[test]
    fn malformed_values_are_errors() {
        assert_eq!(
            args(&["--hours", "1.5"]).value("--hours", 12usize),
            Err("--hours 1.5: invalid digit found in string".to_string())
        );
        assert_eq!(
            args(&["--stride", "x"]).value("--stride", 1usize),
            Err("--stride x: invalid digit found in string".to_string())
        );
        assert_eq!(
            args(&["--max-t-ns", "abc"]).value("--max-t-ns", u64::MAX),
            Err("--max-t-ns abc: invalid digit found in string".to_string())
        );
    }

    #[test]
    fn missing_values_are_errors() {
        assert_eq!(
            args(&["--trace"]).value("--trace", 96usize),
            Err("--trace: missing value".to_string())
        );
        assert_eq!(
            args(&["dump.jsonl", "--max-t-ns"]).value("--max-t-ns", u64::MAX),
            Err("--max-t-ns: missing value".to_string())
        );
        assert_eq!(
            args(&["--tier", "paper", "--reports"]).check_known(&["--tier", "--reports"], &[]),
            Err("--reports: missing value".to_string())
        );
    }

    #[test]
    fn unknown_arguments_are_errors() {
        let known = |raw: &[&str]| args(raw).check_known(&["--case", "--stride"], &["--bless"]);
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
}
