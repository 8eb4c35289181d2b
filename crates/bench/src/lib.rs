//! Shared helpers for the cibola experiment binaries (one per paper table
//! and figure — see DESIGN.md §3 and EXPERIMENTS.md for the index), plus
//! the experiment-oracle layer:
//!
//! * [`experiments`] — tiered runners for every EXPERIMENTS.md entry
//!   (E1–E11, A1–A3). Each returns a measurement struct *and* the
//!   rendered text report, so the table/figure binaries, the golden
//!   snapshots, and the `verify_experiments` oracle share one
//!   implementation.
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
/// does not parse, a flag with no value, or an unknown geometry is an
/// error: the binary prints `error: <flag> <value>: <reason>` and exits
/// with status 2 rather than run with a default the user did not ask for.
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

    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.value(key, default).unwrap_or_else(|e| exit_usage(&e))
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

    /// `--geometry` by name: tiny | small | quarter | xqvr1000 (add `-v2`
    /// for the Virtex-II frame layout), resolved through
    /// [`Geometry::by_name`], the same registry the oracle and the
    /// conformance corpus use; `default` when the flag is absent.
    fn try_geometry(&self, default: &str) -> Result<Geometry, String> {
        let name = self.value("--geometry", default.to_string())?;
        Geometry::by_name(&name).ok_or_else(|| {
            format!("--geometry {name}: unknown geometry (tiny, small, quarter or xqvr1000, optionally with -v2)")
        })
    }

    pub fn geometry(&self, default: &str) -> Geometry {
        self.try_geometry(default)
            .unwrap_or_else(|e| exit_usage(&e))
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
/// binary prints).
pub fn rule(n: usize) -> String {
    "-".repeat(n)
}

/// The standard nine-FPGA payload (three boards of three devices), every
/// position loaded with the same implementation — the configuration the
/// paper flew and the shape `fig4_scrub`, `ablation_scanrate`, the
/// benchmark's storm workload and the conformance corpus all build.
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
        let a = args(&["--hours", "6", "--accel", "1.5"]);
        assert_eq!(a.value("--hours", 12usize), Ok(6));
        assert_eq!(a.value("--accel", 200.0), Ok(1.5));
        let t = args(&["dump.jsonl", "--max-t-ns", "7260000000000"]);
        assert_eq!(t.value("--max-t-ns", u64::MAX), Ok(7_260_000_000_000));
        assert_eq!(a.value("--stride", 1usize), Ok(1), "absent flag");
        assert_eq!(a.try_geometry("tiny").unwrap().name, "CIB-T");
        let g = args(&["--geometry", "small-v2"])
            .try_geometry("tiny")
            .unwrap();
        assert_eq!(g, Geometry::small().with_virtex2_layout());
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
            args(&["--accel", "fast"]).value("--accel", 200.0),
            Err("--accel fast: invalid float literal".to_string())
        );
        assert_eq!(
            args(&["--max-t-ns", "abc"]).value("--max-t-ns", u64::MAX),
            Err("--max-t-ns abc: invalid digit found in string".to_string())
        );
        let e = args(&["--geometry", "huge"])
            .try_geometry("tiny")
            .unwrap_err();
        assert!(e.starts_with("--geometry huge: unknown geometry"), "{e}");
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
        let e = args(&["--geometry"]).try_geometry("tiny").unwrap_err();
        assert_eq!(e, "--geometry: missing value");
    }
}
