#!/bin/bash
# Regenerate every paper table and figure into results/: one
# verify_experiments run at each experiment's paper() parameters, which
# writes each report to results/<stem>.txt and checks the 59 shape claims
# (exit 1 if any fails). The claim summary goes to target/, so the
# committed smoke-tier results/verify_summary.json stays as it is.
set -ex
cd "$(dirname "$0")"
cargo run --release -q -p cibola-bench --bin verify_experiments -- --tier paper --reports results --out target/verify_paper.json
