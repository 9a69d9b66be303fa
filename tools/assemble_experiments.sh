#!/bin/sh
# Assemble EXPERIMENTS.md from the preamble and a full-scale markdown run.
# Usage, from the repository root:
#   go run ./cmd/xfaas-sim -run all -full -markdown > EXPERIMENTS_body.md
#   tools/assemble_experiments.sh
set -e
test -s EXPERIMENTS_preamble.md
test -s EXPERIMENTS_body.md
cat EXPERIMENTS_preamble.md EXPERIMENTS_body.md > EXPERIMENTS.md
echo "EXPERIMENTS.md assembled: $(grep -c '^### ' EXPERIMENTS.md) experiments," \
     "$(grep -c '✅' EXPERIMENTS.md) checks passed, $(grep -c '❌' EXPERIMENTS.md) failed"
