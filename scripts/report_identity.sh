#!/usr/bin/env bash
# Checks that the qtrtest built from this checkout writes byte-identical
# reports to the qtrtest built at a base commit:
#
#   bash scripts/report_identity.sh <base-ref>
#
# Run it from anywhere inside the repository. The base sources are exported
# with `git archive` into a temporary directory, so the repository and its
# git metadata are left as they were. Covered, each at -workers 1 and 2:
# fuzz -eet -backend ref -n 24 at seeds 1 and 42, fuzz -n 48 on -db tpch and
# -db star at seed 42, a fuzz campaign with findings to shrink (-seed 42
# -backend ref fuzz -n 64 -eet -mutant dup-union-branch, whose findings
# include differential, metamorphic and backend kinds), verify -eet for the
# pristine registry and every mutant, mutate, and suite -validate, the last
# three also with -backend ref (verify for the pristine registry and
# wrong-agg). Covered once: analyze -q on three
# TPC-H queries (a join, ORDER BY ... LIMIT, UNION ALL) and the output of
# examples/estimation. Standard output and the exit status are compared;
# standard error is not (it carries progress and timing). Exits 1 if any
# report differs. Set KEEP_REPORTS to a directory to keep every report pair
# there.
set -euo pipefail

base=${1:?usage: scripts/report_identity.sh <base-ref>}
root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify "$base^{commit}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
out=${KEEP_REPORTS:-$work/reports}
mkdir -p "$work/base" "$out"

git -C "$root" archive "$commit" | tar -x -C "$work/base"
for prog in qtrtest estimation; do
	src=./cmd/qtrtest
	[ "$prog" = estimation ] && src=./examples/estimation
	(cd "$work/base" && go build -o "$work/$prog-base" "$src")
	(cd "$root" && go build -o "$work/$prog-head" "$src")
done

mutants="drop-filter-conjunct drop-join-conjunct swap-join-type flip-sort-dir limit-off-by-one dup-union-branch wrong-agg"
fail=0

# compare NAME PROG ARGS... runs both builds of PROG with ARGS and compares
# what they wrote.
compare() {
	local name=$1 prog=$2 side status
	shift 2
	for side in base head; do
		status=0
		"$work/$prog-$side" "$@" >"$out/$name.$side" 2>/dev/null || status=$?
		echo "exit status $status" >>"$out/$name.$side"
	done
	if cmp -s "$out/$name.base" "$out/$name.head"; then
		echo "same     $name"
	else
		echo "DIFFERS  $name"
		diff "$out/$name.base" "$out/$name.head" | head -20 || true
		fail=1
	fi
}

# same NAME ARGS... compares the two qtrtest builds run with ARGS.
same() {
	local name=$1
	shift
	compare "$name" qtrtest "$@"
}

for w in 1 2; do
	for seed in 1 42; do
		same "fuzz-eet-ref-seed$seed-w$w" -workers "$w" -seed "$seed" -backend ref fuzz -eet -n 24 -json
	done
	for db in tpch star; do
		same "fuzz-$db-seed42-w$w" -workers "$w" -seed 42 -db "$db" fuzz -n 48 -json
	done
	same "verify-eet-w$w" -workers "$w" verify -eet -json
	for m in $mutants; do
		same "verify-eet-$m-w$w" -workers "$w" verify -eet -mutant "$m" -json
	done
	same "fuzz-eet-ref-dup-union-branch-w$w" -workers "$w" -seed 42 -backend ref fuzz -n 64 -eet -mutant dup-union-branch -json
	same "mutate-w$w" -workers "$w" mutate
	same "suite-validate-w$w" -workers "$w" suite -validate
	same "mutate-ref-w$w" -workers "$w" -backend ref mutate
	same "suite-validate-ref-w$w" -workers "$w" -backend ref suite -validate
	same "verify-eet-ref-w$w" -workers "$w" -backend ref verify -eet -json
	same "verify-eet-ref-wrong-agg-w$w" -workers "$w" -backend ref verify -eet -mutant wrong-agg -json
done
same analyze-join analyze -q "SELECT c_name, o_totalprice FROM customer JOIN orders ON c_custkey = o_custkey WHERE o_totalprice > 100000"
same analyze-order-limit analyze -q "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 5"
same analyze-union-all analyze -q "SELECT n_name FROM nation WHERE n_regionkey = 1 UNION ALL SELECT r_name FROM region"
compare example-estimation estimation

if [ "$fail" -ne 0 ]; then
	echo "reports differ from the build at $base ($commit)" >&2
	exit 1
fi
echo "all reports byte-identical to the build at $base ($commit)"
