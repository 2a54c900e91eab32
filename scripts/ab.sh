#!/usr/bin/env bash
# ab.sh compares Go benchmarks of a parent revision and the working tree
# across code layouts. A build has exactly one function layout, and a
# change that only moves code can read as a steady few-percent loss (or
# gain) over any number of runs of that one build, so each side's test
# binary is built under K linker layout seeds (-ldflags=-randlayout=<seed>)
# and the runs rotate through every binary, alternating sides.
#
# It prints, per benchmark and side, each layout's median ns/op over its
# rounds, the median of those medians and their spread (max - min), and the
# change's median against the parent's. A difference smaller than the
# parent's spread across layouts is not a difference.
#
#   PARENT=<rev>     the parent revision (default HEAD), read through git
#                    archive into a temporary directory
#   PKG=<package>    the package whose benchmarks run (default ./internal/core)
#   BENCH=<regex>    the benchmarks to run (required)
#   K=<n>            layout seeds per side, 1..K (default 3)
#   ROUNDS=<n>       runs of every binary (default 5)
#   BENCHTIME=<d>    -test.benchtime of each run (default 1s)
#
# Usage: make ab BENCH='NodeSearch/single/8' PARENT=HEAD~1
set -euo pipefail

: "${PARENT:=HEAD}" "${PKG:=./internal/core}" "${K:=3}" "${ROUNDS:=5}" "${BENCHTIME:=1s}" "${GO:=go}"
: "${BENCH:?set BENCH to the benchmarks to run}"

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/hot-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive --format=tar "$PARENT" | tar -xf - -C "$tmp/parent"
src() { if [ "$1" = parent ]; then echo "$tmp/parent"; else echo "$root"; fi; }

for seed in $(seq 1 "$K"); do
	for side in parent change; do
		(cd "$(src $side)" && "$GO" test -c -o "$tmp/$side-$seed.test" -ldflags="-randlayout=$seed" "$PKG")
	done
done

echo "# $PKG -bench '$BENCH': parent $(git -C "$root" rev-parse --short "$PARENT") against the working tree, $K layouts x $ROUNDS rounds" >&2
for round in $(seq 1 "$ROUNDS"); do
	# Alternate which side goes first, so neither always runs warm.
	order="parent change"
	if [ $((round % 2)) -eq 0 ]; then order="change parent"; fi
	for seed in $(seq 1 "$K"); do
		for side in $order; do
			# A test binary runs in its package's directory (testdata).
			(cd "$(src $side)/$PKG" && "$tmp/$side-$seed.test" -test.run '^$' -test.bench "$BENCH" \
				-test.benchtime "$BENCHTIME" -test.count 1) |
				awk -v side="$side" -v seed="$seed" '/^Benchmark/ { for (i = 3; i < NF; i++) if ($(i + 1) == "ns/op") print $1, side, seed, $i }'
		done
	done
	echo "# round $round of $ROUNDS done" >&2
done >"$tmp/runs.txt"

# Median per (benchmark, side, layout), then per (benchmark, side) the
# median of the layout medians and their spread; the parent's row first.
sort -k1,1 -k2,2 -k3,3n -k4,4g "$tmp/runs.txt" |
	awk 'function flush() { if (n) print key, (n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2) }
	{ k = $1 " " $2 " " $3; if (k != key) { flush(); key = k; n = 0 } v[++n] = $4 }
	END { flush() }' |
	sort -k1,1 -k2,2r -k4,4g |
	awk 'function flush() {
		if (!n) return
		med = n % 2 ? m[(n + 1) / 2] : (m[n / 2] + m[n / 2 + 1]) / 2
		line = ""
		for (i = 1; i <= n; i++) line = line sprintf(" %.4g", m[i])
		printf "%-44s %-6s %9.4g %9.4g  %s\n", bench, side, med, m[n] - m[1], line
		if (side == "parent") { pmed = med; pspread = m[n] - m[1] }
		else if (pmed > 0) printf "%-44s %-6s %+8.2f%%  parent spread %.2f%%\n", bench, "delta", 100 * (med - pmed) / pmed, 100 * pspread / pmed
	}
	BEGIN { printf "%-44s %-6s %9s %9s  %s\n", "benchmark", "side", "median", "spread", "layout medians, ns/op" }
	{ if ($1 != bench || $2 != side) { flush(); if ($1 != bench) pmed = 0; bench = $1; side = $2; n = 0 } m[++n] = $4 }
	END { flush() }'
