#!/bin/bash
# Regenerate every paper table/figure into results/. Each binary runs
# with its experiment's paper() parameters.
set -x
cd "$(dirname "$0")"
R=results
cargo run --release -q -p cibola-bench --bin table1 > $R/table1.txt 2>&1
cargo run --release -q -p cibola-bench --bin table2 > $R/table2.txt 2>&1
cargo run --release -q -p cibola-bench --bin fig7 > $R/fig7.txt 2>&1
cargo run --release -q -p cibola-bench --bin fig4_scrub > $R/fig4_scrub.txt 2>&1
cargo run --release -q -p cibola-bench --bin fig8 > $R/fig8.txt 2>&1
cargo run --release -q -p cibola-bench --bin fig12_validation > $R/fig12_validation.txt 2>&1
cargo run --release -q -p cibola-bench --bin halflatch_mitigation > $R/halflatch_mitigation.txt 2>&1
cargo run --release -q -p cibola-bench --bin bist_coverage > $R/bist_coverage.txt 2>&1
cargo run --release -q -p cibola-bench --bin orbit_rates > $R/orbit_rates.txt 2>&1
cargo run --release -q -p cibola-bench --bin selective_tmr > $R/selective_tmr.txt 2>&1
cargo run --release -q -p cibola-bench --bin ablation_scanrate > $R/ablation_scanrate.txt 2>&1
cargo run --release -q -p cibola-bench --bin virtex2_masking > $R/virtex2_masking.txt 2>&1
cargo run --release -q -p cibola-bench --bin strategy_compare > $R/strategy_compare.txt 2>&1
cargo run --release -q -p cibola-bench --bin mission_forensics > $R/mission_forensics.txt 2>&1
echo ALL_EXPERIMENTS_DONE
