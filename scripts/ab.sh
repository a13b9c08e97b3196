#!/usr/bin/env bash
# Alternating A/B runs of the epoch benchmark: a parent revision against
# the working tree, from the repository root:
#
#   bash scripts/ab.sh <parent-rev> <workload> [pairs=10] [seed=7919]
#   make ab PARENT=HEAD~1 WORKLOAD=burst-100k PAIRS=10 SEED=7919
#
# The parent is checked out, detached, into a temporary directory that is
# removed on exit. Each pair runs
#   bash epochbench/run.sh --workload W --seed S --seconds 10 --trace 0
# once in each tree, each tree with its own build directory
# (CARGO_TARGET_DIR), and alternates which tree runs first. The script
# prints every run's end-to-end metrics and digest, then, for each
# end-to-end metric BENCHMARK.json declares: both medians, the parent's
# interquartile range, how many pairs the change won (in the metric's
# "better" direction) and whether the change's median stays within the
# metric's bound. It exits non-zero if a run fails, reports
# "correct":false or reports failed operations. It needs bash, git, awk
# and the Go toolchain.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
	echo "usage: bash scripts/ab.sh <parent-rev> <workload> [pairs=10] [seed=7919]" >&2
	exit 2
fi
parent_rev=$1 workload=$2 pairs=${3:-10} seed=${4:-7919}
case $pairs in '' | *[!0-9]* | 0) echo "ab: pairs must be a positive integer" >&2; exit 2 ;; esac

root=$(git rev-parse --show-toplevel)
cd "$root"
parent_sha=$(git rev-parse --verify --quiet "$parent_rev^{commit}") || {
	echo "ab: unknown revision $parent_rev" >&2
	exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# A shared local clone rather than a worktree: it reaches every object of
# this repository, and an interrupted run leaves nothing behind in its .git.
git clone --quiet --shared --no-checkout "$root" "$tmp/parent"
git -C "$tmp/parent" checkout --quiet --detach "$parent_sha"
if [ ! -f "$tmp/parent/epochbench/run.sh" ]; then
	echo "ab: $parent_rev has no epochbench/run.sh" >&2
	exit 2
fi

# The end-to-end metrics: one "name better bound" line each.
metrics=$(awk '
	/"end_to_end"/ { on = 1; next }
	on && /\]/ { on = 0 }
	on && /"name"/ {
		line = $0
		print field(line, "name"), field(line, "better"), field(line, "bound")
	}
	function field(s, key,    m) {
		if (!match(s, "\"" key "\": *\"?[^\",}]*")) return "?"
		m = substr(s, RSTART, RLENGTH)
		sub("^\"" key "\": *\"?", "", m)
		return m
	}' BENCHMARK.json)
names=$(printf '%s\n' "$metrics" | awk '{ print $1 }')

# run_once TREE LABEL PAIR: one benchmark run; appends "pair label name
# value" lines to $tmp/values and the run's digest to $tmp/digests.
status=0
run_once() {
	local tree=$1 label=$2 pair=$3 out=$tmp/out-$2-$3 rc=0
	(cd "$tree" && CARGO_TARGET_DIR=$tmp/build-$label bash epochbench/run.sh \
		--workload "$workload" --seed "$seed" --seconds 10 --trace 0) >"$out" 2>"$out.err" || rc=$?
	local last report
	last=$(tail -n 1 "$out")
	report=$(tail -n 2 "$out" | head -n 1)
	if [ $rc -ne 0 ] || [[ $last != *'"correct":true'* ]] || [[ $last != *'"failed":0,'* ]]; then
		echo "ab: $label run of pair $pair failed (exit $rc):" >&2
		tail -n 5 "$out.err" "$out" >&2
		status=1
	fi
	local digest=${report##*\"digest\":\"}
	digest=${digest%%\"*}
	printf '%s %s %s\n' "$pair" "$label" "${digest:-?}" >>"$tmp/digests"
	local name value
	for name in $names; do
		value=$(printf '%s\n' "$last" | awk -v key="\"$name\":{\"value\":" '{
			i = index($0, key)
			if (i == 0) { print "na"; exit }
			v = substr($0, i + length(key))
			sub(/[,}].*/, "", v)
			print v
		}')
		printf '%s %s %s %s\n' "$pair" "$label" "$name" "$value" >>"$tmp/values"
	done
}

cores=$(awk '/^processor/ { n++ } END { print n + 0 }' /proc/cpuinfo 2>/dev/null || echo "?")
echo "ab: workload $workload, seed $seed, $pairs pairs, parent $parent_rev ($(git rev-parse --short "$parent_sha")) vs working tree, $cores cores"
: >"$tmp/values"
: >"$tmp/digests"
for pair in $(seq 1 "$pairs"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run_once "$tmp/parent" parent "$pair"
		run_once "$root" change "$pair"
		order="parent first"
	else
		run_once "$root" change "$pair"
		run_once "$tmp/parent" parent "$pair"
		order="change first"
	fi
	awk -v pair="$pair" -v order="$order" '
		FNR == NR { if ($1 == pair) digest[$2] = $3; next }
		$1 == pair { v[$2] = v[$2] " " $3 "=" ($4 == "na" ? "na" : sprintf("%.6g", $4)) }
		END {
			printf "pair %d (%s)\n", pair, order
			printf "  parent%s digest=%s\n", v["parent"], digest["parent"]
			printf "  change%s digest=%s\n", v["change"], digest["change"]
		}' "$tmp/digests" "$tmp/values"
done

printf '%s\n' "$metrics" | awk -v pairs="$pairs" '
	FNR == NR { val[$2, $3, $1] = $4; next }
	function sorted(label, name, a,    k, n, i, j, t) {
		n = 0
		for (k = 1; k <= pairs; k++) {
			if (val[label, name, k] == "na") return 0
			a[++n] = val[label, name, k] + 0
		}
		for (i = 2; i <= n; i++) {
			t = a[i]
			for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
			a[j + 1] = t
		}
		return n
	}
	# quantile interpolates linearly between the sorted values.
	function quantile(a, n, q,    h, lo) {
		h = (n - 1) * q + 1
		lo = int(h)
		if (lo >= n) return a[n]
		return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	BEGIN {
		printf "\n%-18s %-6s %5s %14s %12s %14s %6s %s\n", "metric", "better", "bound",
			"parent_median", "parent_iqr", "change_median", "wins", "within_bound"
	}
	{
		name = $1; better = $2; bound = $3 + 0
		np = sorted("parent", name, p)
		nc = sorted("change", name, c)
		if (np == 0 || nc == 0) {
			printf "%-18s %-6s %5s %14s %12s %14s %6s %s\n", name, better, $3, "n/a", "n/a", "n/a", "n/a", "n/a"
			next
		}
		pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
		iqr = quantile(p, np, 0.75) - quantile(p, np, 0.25)
		wins = 0
		for (k = 1; k <= pairs; k++) {
			pv = val["parent", name, k] + 0; cv = val["change", name, k] + 0
			if ((better == "lower" && cv < pv) || (better == "higher" && cv > pv)) wins++
		}
		ok = (better == "lower") ? (cm <= pm * (1 + bound)) : (cm >= pm * (1 - bound))
		printf "%-18s %-6s %5s %14.6g %12.6g %14.6g %3d/%-2d %s\n", name, better, $3,
			pm, iqr, cm, wins, pairs, ok ? "yes" : "NO"
	}' "$tmp/values" -

exit $status
