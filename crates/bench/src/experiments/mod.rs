//! Tiered runners for every EXPERIMENTS.md entry.
//!
//! Each experiment is a function from a parameter struct to a measurement
//! struct that carries both the numbers the claim evaluators need and the
//! rendered text report. One implementation serves two consumers:
//!
//! * the `verify_experiments` runner, which runs each experiment at
//!   `--tier smoke` (fast, CI-sized) or `--tier paper` (the EXPERIMENTS.md
//!   scales), evaluates the shape claims and, with `--reports`, writes
//!   the reports — `run_experiments.sh` regenerates `results/*.txt` that
//!   way;
//! * the golden-snapshot tests, which pin the smoke-tier report text.
//!
//! Every parameter struct has `smoke()` and `paper()` constructors; the
//! paper constructors are the scales behind `results/*.txt`.

pub mod bist;
pub mod fig12;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod forensics;
pub mod halflatch;
pub mod orbit;
pub mod rmw;
pub mod scanrate;
pub mod strategies;
pub mod table1;
pub mod table2;
pub mod tmr;
pub mod virtex2;

/// Which scale an oracle run regenerates an experiment at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// CI-sized: tiny geometries, sampled closures, short missions.
    Smoke,
    /// The EXPERIMENTS.md scales (what `results/*.txt` was generated at).
    Paper,
}

impl Tier {
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "smoke" => Some(Tier::Smoke),
            "paper" => Some(Tier::Paper),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Tier::Smoke => "smoke",
            Tier::Paper => "paper",
        }
    }
}
