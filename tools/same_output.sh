#!/bin/sh
# Byte identity against another commit: the refactoring contract as one
# command. Builds xfaas-sim and xfaas-inspect from REF and from the working
# tree, runs both builds over the seeded outputs below, compares each pair
# with cmp and prints one "same" or "DIFF" line per output. Exits 1 if any
# output differs. Usage, from anywhere in the repository:
#   tools/same_output.sh HEAD~1
# The outputs, all at seed 7 (stdout, stderr and the exit code of each):
#   xfaas-sim -run all -markdown
#   xfaas-inspect -invariants -chaos NAME, for every NAME that
#     xfaas-inspect -list prints
#   xfaas-sim -chaos retrystorm -policy P, for P in pull, prewarm, spes
#   xfaas-sim -parallel 4 -pchaos -traced -invariants, with and without -seq
#   xfaas-sim -parallel 4 -pdrain, the partitioned evacuation drill
#   the JSON file xfaas-sim -policy-matrix writes
# REF is checked out in a shared clone in a temporary directory, so the
# repository itself is not touched. Needs only git and the Go toolchain;
# takes several minutes.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 REF" >&2; exit 2; }
cd "$(git rev-parse --show-toplevel)"
rev=$(git rev-parse --verify "$1^{commit}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git clone -q --shared --no-checkout . "$work/src"
git -C "$work/src" checkout -q "$rev"
for cmd in xfaas-sim xfaas-inspect; do
	(cd "$work/src" && go build -o "$work/old/$cmd" ./cmd/$cmd)
	go build -o "$work/new/$cmd" ./cmd/$cmd
done

status=0
# compare NAME prints whether the two sides' NAME files are identical.
compare() {
	if cmp -s "$work/old/$1" "$work/new/$1"; then
		echo "same $1"
	else
		echo "DIFF $1"
		status=1
	fi
}
# record NAME BIN ARGS... runs BIN of both builds side by side, keeps
# what each printed and its exit code in NAME, and compares the two.
record() {
	name=$1 bin=$2
	shift 2
	for side in old new; do
		(
			code=0
			"$work/$side/$bin" "$@" > "$work/$side/$name" 2>&1 || code=$?
			echo "exit $code" >> "$work/$side/$name"
		) &
	done
	wait
	compare "$name"
}

record sim-run-all xfaas-sim -run all -markdown -seed 7
# xfaas-inspect -list prints one "name  description" line per scenario.
names=$("$work/new/xfaas-inspect" -list | awk '{ print $1 }')
[ -n "$names" ] || { echo "xfaas-inspect -list named no scenario" >&2; exit 1; }
for name in $names; do
	record "inspect-$name" xfaas-inspect -seed 7 -invariants -chaos "$name"
done
for pol in pull prewarm spes; do
	record "sim-retrystorm-$pol" xfaas-sim -chaos retrystorm -seed 7 -policy "$pol"
done
record sim-parallel xfaas-sim -parallel 4 -pchaos -traced -invariants -seed 7
record sim-parallel-seq xfaas-sim -parallel 4 -seq -pchaos -traced -invariants -seed 7
record sim-pdrain xfaas-sim -parallel 4 -pdrain -seed 7
for side in old new; do
	"$work/$side/xfaas-sim" -policy-matrix "$work/$side/policy-matrix.json" -seed 7 > /dev/null &
done
wait
compare policy-matrix.json
exit $status
