#!/bin/sh
# Byte identity against another commit: the refactoring contract as one
# command. Builds xfaas-sim and xfaas-inspect from REF and from the working
# tree, runs both builds over every row of tools/runs.txt and prints one
# "same" or "DIFF" line per row: what each run printed, its exit code and
# the files it wrote. On the working-tree side it also checks that
#   - every scenario xfaas-sim -list or xfaas-inspect -list names has a
#     row, and every row of REF's table is still there (before any run);
#   - every row that must exit 0 does;
#   - the two rows of every identity print the same bytes.
# Exits 1 on any DIFF or failed check. Against HEAD on an unmodified
# checkout it builds the same tree twice and runs every row twice: CI's
# determinism gate. Usage, from anywhere in the repository:
#   tools/same_output.sh HEAD~1
# REF is checked out in a shared clone in a temporary directory, so the
# repository itself is not touched. Needs only git and the Go toolchain;
# takes about 5 minutes on 2 vCPUs.
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

table=tools/runs.txt
status=0
fail() {
	echo "FAIL $*"
	status=1
}
# rows FILE prints the name of every row of the table FILE.
rows() { awk '/^[^#]/ && $2 != "≡" { print $1 }' "$1"; }
covered=$(awk '/^[^#]/ && $2 != "≡" {
	b = 3; while ($b ~ /=/) b++
	for (i = b + 1; i < NF; i++) if ($i == "-chaos") print $b, $(i + 1)
}' $table)
for name in $("$work/new/xfaas-sim" -list | awk '/^Chaos scenario library/ { f = 1; next } /^$/ { f = 0 } f { print $1 }'); do
	echo "$covered" | grep -qx "xfaas-sim $name" || fail "no row runs xfaas-sim -chaos $name"
done
for name in $("$work/new/xfaas-inspect" -list | awk '{ print $1 }'); do
	echo "$covered" | grep -qx "xfaas-inspect $name" || fail "no row runs xfaas-inspect -chaos $name"
done
if [ -f "$work/src/$table" ]; then
	for name in $(rows "$work/src/$table"); do
		rows $table | grep -qx "$name" || fail "row $name of $1 is gone"
	done
fi
[ $status -eq 0 ] || exit 1

# run SIDE NAME [VAR=VALUE...] BIN ARGS... runs one row on SIDE's build, in
# SIDE's directory, and keeps what it printed, then its exit code, in
# SIDE/NAME. An argument @FILE becomes the file SIDE/NAME.FILE, named
# relative to the directory so that both sides print the same name.
run() {
	side=$1 name=$2 bin=
	shift 2
	cd "$work/$side"
	for a; do
		shift
		if [ -n "$bin" ]; then
			case $a in @*) a=$name.${a#@} ;; esac
		elif case $a in *=*) false ;; esac; then
			bin=$a a=$work/$side/$a
		fi
		set -- "$@" "$a"
	done
	code=0
	env "$@" > "$name" 2>&1 < /dev/null || code=$?
	echo "exit $code" >> "$name"
}

set -f
while read -r name must rest; do
	case $name in '' | '#'*) continue ;; esac
	if [ "$must" = ≡ ]; then
		# An identity follows its two rows.
		if [ ! -f "$work/new/$name" ] || [ ! -f "$work/new/$rest" ]; then
			fail "$name ≡ $rest: no such row"
		elif cmp -s "$work/new/$name" "$work/new/$rest"; then
			echo "same $name ≡ $rest"
		else
			echo "DIFF $name ≡ $rest"
			status=1
		fi
		continue
	fi
	for side in old new; do
		(run $side $name $rest) &
	done
	wait
	files=$name
	for a in $rest; do
		case $a in @*) files="$files $name.${a#@}" ;; esac
	done
	same=same
	for f in $files; do
		cmp -s "$work/old/$f" "$work/new/$f" || same=DIFF
	done
	echo "$same $name"
	[ $same = same ] || status=1
	if [ "$must" = 0 ] && [ "$(tail -n 1 "$work/new/$name")" != "exit 0" ]; then
		fail "$name: $(tail -n 1 "$work/new/$name"), must be 0"
	fi
done < $table
exit $status
