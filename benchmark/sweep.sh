#!/usr/bin/env bash
# Runs every workload on a range of seeds and appends the records to one
# JSON-lines file, which `run.sh compare` reads:
#
#   bash benchmark/sweep.sh OUT.jsonl [first_seed] [seeds] [trace]
#   bash benchmark/run.sh compare OUT.jsonl OUT.jsonl     # spreads of one set
#   bash benchmark/run.sh compare A.jsonl B.jsonl         # judge B against A
set -euo pipefail

out=$1 first=${2:-1} seeds=${3:-10} trace=${4:-0}
for ((seed = first; seed < first + seeds; seed++)); do
	for w in replay_conflux replay_2d_faulted numeric_solve plan_cold plan_hot; do
		bash "$(dirname "$0")/run.sh" --workload "$w" --seed "$seed" --seconds 20 --trace "$trace" --out "$out" >/dev/null 2>&1 ||
			echo "sweep: $w seed $seed failed" >&2
	done
done
