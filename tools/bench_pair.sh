#!/bin/sh
# Paired timing against another commit, the comparison a performance claim
# rests on (benchmark/README.md, "How to compare two commits"). Builds the
# benchmark program from REF and from the working tree, runs N pairs of one
# workload at -trace 0, pair i at seed i on both sides, alternating which
# side goes first, and prints:
#   every end-to-end metric of every pair, with the change's gain;
#   each side's median, first and third quartile (linear interpolation);
#   the change's median gain, the pairs it won (ties count for neither) and
#   whether a gain may be claimed: at least 9 in 10 pairs won, and the
#   medians apart by more than the parent's inter-quartile range.
# "Better" is read from BENCHMARK.json. Usage, from anywhere in the
# repository:
#   tools/bench_pair.sh HEAD~1 loaded_day        # ten pairs
#   tools/bench_pair.sh HEAD~1 storm_defended 4
# REF is checked out in a shared clone in a temporary directory, so the
# repository itself is not touched, and nothing is written to BENCH_*.json.
# Needs only git, awk and the Go toolchain; a loaded_day pair takes about a
# minute.
set -eu
[ $# -ge 2 ] && [ $# -le 3 ] || { echo "usage: $0 REF WORKLOAD [N=10]" >&2; exit 2; }
cd "$(git rev-parse --show-toplevel)"
rev=$(git rev-parse --verify "$1^{commit}")
workload=$2
n=${3:-10}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git clone -q --shared --no-checkout . "$work/src"
git -C "$work/src" checkout -q "$rev"
(cd "$work/src/benchmark" && go build -o "$work/old" .)
(cd benchmark && go build -o "$work/new" .)

# run SIDE SEED runs one side once and appends "SIDE SEED METRIC VALUE"
# rows to $work/rows.
run() {
	if ! "$work/$1" -workload "$workload" -seed "$2" -trace 0 -out '' > "$work/out" 2>&1; then
		cat "$work/out" >&2
		echo "$0: the $1 side failed at seed $2" >&2
		exit 1
	fi
	awk -v side="$1" -v seed="$2" -v w="$workload" \
		'$1 == w && NF == 4 && $2 !~ /^\[/ { print side, seed, $2, $3 }' "$work/out" >> "$work/rows"
}

: > "$work/rows"
i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run old "$i"
		run new "$i"
	else
		run new "$i"
		run old "$i"
	fi
	i=$((i + 1))
done

echo "$workload: $n pairs, old = $rev, new = working tree"
awk -v n="$n" '
# quantile of the sorted array s[1..k] at p, interpolating linearly.
function quantile(s, k, p,   h, lo) {
	h = (k - 1) * p + 1
	lo = int(h)
	return lo >= k ? s[k] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
}
# stats fills q[1..3] with the quartiles of side over all seeds of m.
function stats(side, m,   s, i, j, t) {
	for (i = 1; i <= n; i++) {
		s[i] = v[side, i, m]
		for (j = i; j > 1 && s[j - 1] > s[j]; j--) {
			t = s[j]; s[j] = s[j - 1]; s[j - 1] = t
		}
	}
	q[1] = quantile(s, n, 0.25); q[2] = quantile(s, n, 0.5); q[3] = quantile(s, n, 0.75)
}
# gain is how much better b is than a, as a share of a.
function gain(m, a, b) {
	if (a == 0) return 0
	return (better[m] == "lower" ? a - b : b - a) / a
}
FNR == NR {
	if ($1 == "\"name\":") { name = $2; gsub(/[",]/, "", name) }
	if ($1 == "\"better\":") { b = $2; gsub(/[",]/, "", b); better[name] = b }
	next
}
{
	if (!(($3) in seen)) { seen[$3] = 1; order[++nm] = $3 }
	v[$1, $2, $3] = $4
}
END {
	for (k = 1; k <= nm; k++) {
		m = order[k]
		printf "\n%s (%s is better)\n", m, better[m]
		printf "  %4s %5s %14s %14s %8s\n", "seed", "first", "old", "new", "gain"
		wins = 0
		for (i = 1; i <= n; i++) {
			g = gain(m, v["old", i, m], v["new", i, m])
			if (g > 0) wins++
			printf "  %4d %5s %14.6g %14.6g %+7.1f%%\n", i, i % 2 ? "old" : "new", v["old", i, m], v["new", i, m], 100 * g
		}
		stats("old", m); o1 = q[1]; o2 = q[2]; o3 = q[3]
		stats("new", m)
		printf "  old median %.6g (q1 %.6g, q3 %.6g); new median %.6g (q1 %.6g, q3 %.6g)\n", o2, o1, o3, q[2], q[1], q[3]
		d = better[m] == "lower" ? o2 - q[2] : q[2] - o2
		claim = wins * 10 >= 9 * n && d > o3 - o1 ? "yes" : "no"
		printf "  median gain %+.1f%%, won %d of %d pairs, gain claimable: %s\n", 100 * gain(m, o2, q[2]), wins, n, claim
	}
}' BENCHMARK.json "$work/rows"
