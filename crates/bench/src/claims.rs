//! Machine-checked shape claims.
//!
//! Every EXPERIMENTS.md entry asserts a *shape* — a band a measurement
//! must land in, an ordering a column must obey, an exact operation
//! count. This module turns each of those prose sentences into a
//! [`Claim`] with a stable ID (`E1-MULT-LFSR-RATIO`, `E8-OPCOUNT`, …)
//! that the `verify_experiments` oracle evaluates and writes to
//! `results/verify_summary.json`. A claim that regresses fails the run —
//! the number can no longer drift silently under a checked-in text file.

use std::fmt::Write as _;

use cibola_telemetry::json::{f64_to_json, JsonObject};

/// One evaluated shape claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Stable identifier, referenced from EXPERIMENTS.md (`E4-SCAN-CYCLE`).
    pub id: &'static str,
    /// The experiment the claim guards (`E4`, `A3`, …).
    pub experiment: &'static str,
    /// The prose shape claim being checked.
    pub description: String,
    /// What was measured (already reduced to one scalar where possible).
    pub measured: f64,
    /// Human-readable expectation (`"in [170, 195]"`, `"== 20"`).
    pub expected: String,
    /// Measured − nearest acceptable value (0 when passing).
    pub delta: f64,
    pub pass: bool,
}

/// An accumulating set of claims with evaluation helpers.
#[derive(Debug, Default)]
pub struct ClaimSet {
    pub claims: Vec<Claim>,
}

impl ClaimSet {
    pub fn new() -> Self {
        ClaimSet::default()
    }

    /// `measured` must land in `[lo, hi]` (inclusive).
    pub fn band(
        &mut self,
        id: &'static str,
        experiment: &'static str,
        description: &str,
        measured: f64,
        lo: f64,
        hi: f64,
    ) {
        let pass = measured.is_finite() && measured >= lo && measured <= hi;
        let delta = if pass {
            0.0
        } else if measured < lo {
            measured - lo
        } else {
            measured - hi
        };
        self.claims.push(Claim {
            id,
            experiment,
            description: description.to_string(),
            measured,
            expected: format!("in [{}, {}]", trim(lo), trim(hi)),
            delta,
            pass,
        });
    }

    /// `measured` must be at least `lo`.
    pub fn at_least(
        &mut self,
        id: &'static str,
        experiment: &'static str,
        description: &str,
        measured: f64,
        lo: f64,
    ) {
        self.band(id, experiment, description, measured, lo, f64::INFINITY);
        self.claims.last_mut().unwrap().expected = format!(">= {}", trim(lo));
    }

    /// `measured` must be at most `hi`.
    pub fn at_most(
        &mut self,
        id: &'static str,
        experiment: &'static str,
        description: &str,
        measured: f64,
        hi: f64,
    ) {
        self.band(id, experiment, description, measured, f64::NEG_INFINITY, hi);
        self.claims.last_mut().unwrap().expected = format!("<= {}", trim(hi));
    }

    /// Exact integer equality (operation counts, zero-error assertions).
    pub fn exact(
        &mut self,
        id: &'static str,
        experiment: &'static str,
        description: &str,
        measured: u64,
        expected: u64,
    ) {
        self.claims.push(Claim {
            id,
            experiment,
            description: description.to_string(),
            measured: measured as f64,
            expected: format!("== {expected}"),
            delta: measured as f64 - expected as f64,
            pass: measured == expected,
        });
    }

    /// A boolean predicate (orderings, attribution checks). `measured`
    /// records 1.0 for true.
    pub fn holds(
        &mut self,
        id: &'static str,
        experiment: &'static str,
        description: &str,
        ok: bool,
    ) {
        self.claims.push(Claim {
            id,
            experiment,
            description: description.to_string(),
            measured: if ok { 1.0 } else { 0.0 },
            expected: "holds".to_string(),
            delta: if ok { 0.0 } else { -1.0 },
            pass: ok,
        });
    }

    /// An "every X" predicate: each member of `population` satisfies
    /// `pred`, and the population is not empty, so a claim over no
    /// members fails instead of passing vacuously. Recorded as
    /// [`ClaimSet::holds`] records a predicate.
    pub fn every<T>(
        &mut self,
        id: &'static str,
        experiment: &'static str,
        description: &str,
        population: impl IntoIterator<Item = T>,
        mut pred: impl FnMut(T) -> bool,
    ) {
        let mut members = 0;
        let all = population.into_iter().all(|x| {
            members += 1;
            pred(x)
        });
        self.holds(id, experiment, description, all && members > 0);
    }

    pub fn passed(&self) -> usize {
        self.claims.iter().filter(|c| c.pass).count()
    }

    pub fn failed(&self) -> usize {
        self.claims.len() - self.passed()
    }

    pub fn all_pass(&self) -> bool {
        self.failed() == 0
    }

    /// The human-readable verdict table the oracle prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} | {:<24} | {:>12} | {:>16} | shape",
            "status", "claim", "measured", "expected"
        );
        let _ = writeln!(out, "{}", "-".repeat(96));
        for c in &self.claims {
            let _ = writeln!(
                out,
                "{:<6} | {:<24} | {:>12} | {:>16} | {}",
                if c.pass { "PASS" } else { "FAIL" },
                c.id,
                trim(c.measured),
                c.expected,
                c.description
            );
        }
        let _ = writeln!(out, "{}", "-".repeat(96));
        let _ = writeln!(
            out,
            "# {} claims: {} passed, {} failed",
            self.claims.len(),
            self.passed(),
            self.failed()
        );
        out
    }

    /// The `verify_summary.json` document: run metadata plus one record
    /// per claim with measured-vs-expected deltas. It holds nothing of the
    /// host, so a run reproduces the committed summary byte for byte.
    pub fn to_json(&self, tier: &str) -> String {
        let mut claims = String::from("[");
        for (i, c) in self.claims.iter().enumerate() {
            if i > 0 {
                claims.push(',');
            }
            let mut o = JsonObject::new();
            o.str("id", c.id);
            o.str("experiment", c.experiment);
            o.str("description", &c.description);
            o.num_f64("measured", c.measured);
            o.str("expected", &c.expected);
            o.num_f64("delta", c.delta);
            o.bool("pass", c.pass);
            claims.push_str(&o.finish());
        }
        claims.push(']');

        let mut o = JsonObject::new();
        o.str("oracle", "verify_experiments");
        o.str("tier", tier);
        o.num_u64("claims", self.claims.len() as u64);
        o.num_u64("passed", self.passed() as u64);
        o.num_u64("failed", self.failed() as u64);
        o.bool("all_pass", self.all_pass());
        o.raw("results", &claims);
        let mut s = o.finish();
        s.push('\n');
        s
    }
}

/// Render a float without trailing float noise (`20` not `20.0`, but
/// `183.7` stays `183.7`).
fn trim(v: f64) -> String {
    if !v.is_finite() {
        return if v > 0.0 { "inf" } else { "-inf" }.to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.4}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        if s.is_empty() {
            f64_to_json(v)
        } else {
            s.to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cibola_telemetry::json::validate_json_line;

    #[test]
    fn bands_and_exacts_evaluate() {
        let mut set = ClaimSet::new();
        set.band("T-BAND", "T", "in band", 183.7, 170.0, 195.0);
        set.band("T-LOW", "T", "below band", 150.0, 170.0, 195.0);
        set.exact("T-EXACT", "T", "op count", 20, 20);
        set.exact("T-OFF", "T", "op count off", 21, 20);
        set.holds("T-ORDER", "T", "ordering", true);
        set.at_least("T-MIN", "T", "at least", 0.97, 0.9);
        set.at_most("T-MAX", "T", "at most", 0.1, 0.5);
        assert_eq!(set.passed(), 5);
        assert_eq!(set.failed(), 2);
        assert!(!set.all_pass());
        let low = set.claims.iter().find(|c| c.id == "T-LOW").unwrap();
        assert!((low.delta - (150.0 - 170.0)).abs() < 1e-12);
    }

    #[test]
    fn json_summary_is_valid_and_complete() {
        let mut set = ClaimSet::new();
        set.band("T-A", "T", "a", 1.0, 0.0, 2.0);
        set.exact("T-B", "T", "b", 3, 4);
        let json = set.to_json("smoke");
        validate_json_line(json.trim()).expect("summary must be valid JSON");
        assert!(json.contains("\"T-A\""));
        assert!(json.contains("\"all_pass\":false"));
        assert!(json.contains("\"tier\":\"smoke\""));
    }

    #[test]
    fn nan_measurement_fails_band() {
        let mut set = ClaimSet::new();
        set.band("T-NAN", "T", "nan", f64::NAN, 0.0, 1.0);
        assert!(!set.all_pass());
    }

    #[test]
    fn every_fails_on_an_empty_population() {
        let mut set = ClaimSet::new();
        set.every("T-EMPTY", "T", "empty", std::iter::empty::<u32>(), |_| true);
        set.every("T-SHORT", "T", "no pair", [1.0][..].windows(2), |_| true);
        set.every("T-FULL", "T", "all hold", [1, 2, 3], |x| x > 0);
        set.every("T-BREAK", "T", "one fails", [1, -2, 3], |x| x > 0);
        let pass: Vec<bool> = set.claims.iter().map(|c| c.pass).collect();
        assert_eq!(pass, [false, false, true, false]);
        let full = &set.claims[2];
        assert_eq!((full.measured, full.expected.as_str()), (1.0, "holds"));
    }

    #[test]
    fn render_lists_every_claim() {
        let mut set = ClaimSet::new();
        set.band("T-A", "T", "a", 1.0, 0.0, 2.0);
        set.holds("T-B", "T", "b", false);
        let table = set.render();
        assert!(table.contains("T-A") && table.contains("T-B"));
        assert!(table.contains("PASS") && table.contains("FAIL"));
    }
}
