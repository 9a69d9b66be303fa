#!/bin/sh
# Non-test Go lines per package, then their total: the code-size number
# ROADMAP tracks. Usage, from the repository root:
#   tools/loc.sh                              every package of the module
#   tools/loc.sh internal/experiment cmd/*    just these directories
set -e
if [ $# -eq 0 ]; then
	set -- $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec dirname {} \; | sort -u | sed 's|^\./||')
fi
total=0
for pkg in "$@"; do
	n=$(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
	total=$((total + n))
	printf '%7d %s\n' "$n" "$pkg"
done
printf '%7d total\n' "$total"
