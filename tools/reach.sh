#!/bin/sh
# Reachability: which statements of the module no entry point executes.
#
# Builds every command and example with -cover, runs every seeded run of
# tools/runs.txt once, then what only reach measures: the listings, CSV
# output and profiles, the usage errors, a rejected config and unwritable
# output paths, the workload tracer, the examples and xfaasd. Adds the
# httpapi tests and the benchmark smoke test, merges the counters and
# prints, per package, the unreached statements and the functions no run
# entered. Usage, from the repository root:
#   tools/reach.sh          report only
#   tools/reach.sh 8.5      also exit 1 if more than 8.5% is unreached
# Needs only the Go toolchain; takes a few minutes.
set -eu
limit=${1:-}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin cov=$work/cov out=$work/out
mkdir -p "$bin" "$cov" "$out"

for cmd in cmd/xfaas-sim cmd/xfaas-inspect cmd/xfaas-trace cmd/xfaasd examples/quickstart examples/triggers; do
	go build -cover -coverpkg=xfaas/... -o "$bin/$(basename $cmd)" ./$cmd
done
export GOCOVERDIR="$cov"

# run NAME ARGS... runs one entry point and keeps its output out of sight;
# an exit code other than 0 fails the measurement.
run() {
	echo "  $*" >&2
	"$bin/$@" > "$out/last.txt" 2>&1 || { cat "$out/last.txt" >&2; exit 1; }
}
# fails CODE NAME ARGS... expects the entry point to exit with CODE;
# rejects NAME ARGS... expects a usage error (exit 2).
fails() {
	want=$1
	shift
	echo "  $* (exit $want)" >&2
	code=0
	"$bin/$@" > "$out/last.txt" 2>&1 || code=$?
	[ "$code" -eq "$want" ] || { cat "$out/last.txt" >&2; echo "want exit $want, got $code" >&2; exit 1; }
}
rejects() { fails 2 "$@"; }

echo "running the seeded runs:" >&2
set -f
while read -r name must rest; do
	case $name in '' | '#'*) continue ;; esac
	[ "$must" != ≡ ] || continue
	exe=
	set --
	for a in $rest; do
		if [ -n "$exe" ]; then
			case $a in @*) a=$out/$name.${a#@} ;; esac
		elif case $a in *=*) false ;; esac; then
			exe=$a a=$bin/$a
		fi
		set -- "$@" "$a"
	done
	echo "  $name" >&2
	code=0
	env "$@" > "$out/last.txt" 2>&1 < /dev/null || code=$?
	[ "$code" -eq 0 ] || [ "$must" = any ] || { cat "$out/last.txt" >&2; exit 1; }
done < tools/runs.txt
set +f

echo "running the other entry points:" >&2
run xfaas-sim -list
run xfaas-sim -run all -out "$out/csv" -cpuprofile "$out/cpu.pprof" -memprofile "$out/heap.pprof"
rejects xfaas-sim -run nosuch
rejects xfaas-sim -chaos nosuch
rejects xfaas-sim -policy nosuch
rejects xfaas-sim -parallel 99
rejects xfaas-sim -parallel 2 -minutes -5
rejects xfaas-sim -parallel 2 -minutes 200000000
rejects xfaas-sim -list -cpuprofile "$out/missing/cpu.pprof"
rejects xfaas-sim -parallel 4 -policy pull
echo '{"regions": 2000}' > "$out/topology.json"
fails 1 xfaas-sim -run fig3 -out "$out/topology.json/csv"

run xfaas-inspect -list
rejects xfaas-inspect -chaos nosuch
rejects xfaas-inspect -top -1
rejects xfaas-inspect -minutes 200000000
fails 1 xfaas-inspect -minutes 1 -chrome "$out/missing/trace.json"

run xfaas-trace -csv "$out/arrivals.csv"
rejects xfaas-trace -functions 0
rejects xfaas-trace -hours 3000000
fails 1 xfaas-trace -hours 1 -csv "$out/missing/arrivals.csv"
run quickstart
run triggers

"$bin/xfaasd" -listen 127.0.0.1:0 -invariants -slo \
	-config internal/core/testdata/config.json \
	-workload internal/workload/testdata/workload.json > "$out/xfaasd.txt" 2>&1 &
pid=$!
sleep 3
kill -TERM "$pid"
wait "$pid" || { cat "$out/xfaasd.txt" >&2; exit 1; }
echo "  xfaasd (started and stopped)" >&2
rejects xfaasd -speedup 0
rejects xfaasd -regions 5 -workers 2
fails 1 xfaasd -config "$out/topology.json"
fails 1 xfaasd -config "$out/missing.json"
fails 1 xfaasd -workload "$out/topology.json"

unset GOCOVERDIR
echo "  go test ./internal/httpapi" >&2
go test -count=1 -cover -coverpkg=xfaas/... ./internal/httpapi -args -test.gocoverdir="$cov" > /dev/null
echo "  benchmark smoke test" >&2
(cd benchmark && go test -count=1 -cover -coverpkg=xfaas/... . -args -test.gocoverdir="$cov") > /dev/null

go tool covdata textfmt -i="$cov" -o "$work/profile.txt"
# A block appears once per binary that links it; it is reached if any run
# reached it. Merge to one line per block, then count per package. The
# benchmark is a separate module: its own files are not counted.
awk 'NR == 1 { print; next }
	$1 ~ /^xfaas\/benchmark\// { next }
	!($1 in stmts) { stmts[$1] = $2; order[++n] = $1 }
	$3 > 0 { hit[$1] = 1 }
	END { for (i = 1; i <= n; i++) print order[i], stmts[order[i]], (order[i] in hit) ? 1 : 0 }' \
	"$work/profile.txt" > "$work/merged.txt"
awk -v share="$work/share" 'NR > 1 {
	pkg = $1; sub("/[^/]*$", "", pkg)
	total[pkg] += $2; all += $2
	if ($3 == 0) { miss[pkg] += $2; none += $2 }
}
END {
	printf "\n%-30s %10s %6s\n", "package", "unreached", "share"
	for (p in miss) printf "%-30s %4d/%-5d %5.1f%%\n", p, miss[p], total[p], 100 * miss[p] / total[p] | "sort"
	close("sort")
	printf "unreached: %d of %d statements (%.1f%%)\n", none, all, 100 * none / all
	printf "%.1f\n", 100 * none / all > share
}' "$work/merged.txt"
echo
echo "functions no entry point enters:"
go tool cover -func="$work/merged.txt" | awk '$NF == "0.0%" { print "  " $1, $2 }'

if [ -n "$limit" ]; then
	share=$(cat "$work/share")
	echo "unreached share ${share}% (ratchet ${limit}%)"
	awk -v s="$share" -v l="$limit" 'BEGIN { exit !(s <= l) }' || {
		echo "the unreached share ${share}% rose above the ratchet ${limit}%"
		exit 1
	}
fi
