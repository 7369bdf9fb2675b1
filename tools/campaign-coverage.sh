#!/usr/bin/env bash
# Campaign coverage: which non-test code the CLI's campaigns never run.
#
# Builds ptperf with coverage counters over cmd/ and internal/, runs the
# campaigns below with GOCOVERDIR set, and prints the statement coverage
# and the count of never-run functions. Every never-run function must be
# listed in tools/neverrun.txt, and every listed one must still be
# never-run: the script exits 1 on either kind of mismatch.
#
# Usage, from the repository root (about 30 s on two cores):
#
#	bash tools/campaign-coverage.sh [WORKDIR]
#
# WORKDIR (default: a fresh temporary directory) receives the binary,
# the counters, the campaign outputs and func.txt, the per-function
# coverage table.
set -euo pipefail

work=${1:-$(mktemp -d)}
rm -rf "$work/cov" "$work/cache"
mkdir -p "$work/cov" "$work/cache"
go build -cover -coverpkg=./cmd/...,./internal/... -o "$work/ptperf" ./cmd/ptperf

export GOCOVERDIR="$work/cov"
for exp in all sweep contention churn scenario:clean; do
	"$work/ptperf" -exp "$exp" -progress >"$work/$exp.txt" 2>"$work/$exp.err"
done
# The first run fills the cache, the second renders every cell from it.
for run in fill read; do
	"$work/ptperf" -exp all -cache -cache-dir "$work/cache" \
		-report "$work/report.html" -metrics-dir "$work/metrics" >"$work/cached-$run.txt" 2>"$work/cached-$run.err"
done
"$work/ptperf" fuzz -n 30 -seed 1 >"$work/fuzz.txt"
"$work/ptperf" fuzz -replay internal/simtest/testdata/corpus/seeds.txt >"$work/replay.txt"
unset GOCOVERDIR

go tool covdata percent -i "$work/cov"
go tool covdata func -i "$work/cov" >"$work/func.txt"
tail -n 1 "$work/func.txt"

# "file func" of every function with no statement run, file relative to
# the repository root, against the first two fields of the list.
awk '$NF == "0.0%" { f = $1; sub(/:[0-9]+:$/, "", f); sub(/^ptperf\//, "", f); print f, $2 }' \
	"$work/func.txt" | sort >"$work/neverrun.got"
awk '!/^#/ && NF { print $1, $2 }' tools/neverrun.txt | sort >"$work/neverrun.want"
echo "never-run non-test functions $(wc -l <"$work/neverrun.got")"

status=0
if unlisted=$(comm -23 "$work/neverrun.got" "$work/neverrun.want") && [ -n "$unlisted" ]; then
	echo "never run by any campaign and not in tools/neverrun.txt (delete it, or list it with its kind):" >&2
	echo "$unlisted" >&2
	status=1
fi
if running=$(comm -13 "$work/neverrun.got" "$work/neverrun.want") && [ -n "$running" ]; then
	echo "listed in tools/neverrun.txt but now run by a campaign (remove the line):" >&2
	echo "$running" >&2
	status=1
fi
exit $status
