#!/bin/sh
# bench.sh runs the simulator hot-path benchmarks and writes
# BENCH_netsim.json at the repo root: current ns/op, B/op, and allocs/op
# for each benchmark, alongside the frozen pre-optimization seed numbers
# so the speedup is visible without digging through git history.
#
# It also runs the serving-capacity experiment: the same distinct what-if
# rows pushed as individual /v1/whatif requests and as /v1/batch
# submissions against a live server (cmd/loadgen -compare), recorded under
# "serve_capacity" with the batch/single goodput ratio.
#
# Usage: scripts/bench.sh [output.json]
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_netsim.json}"
tmp="$(mktemp)"
tmpdir="$(mktemp -d)"
trap 'rm -f "$tmp"; rm -rf "$tmpdir"' EXIT

echo "running root benchmarks..." >&2
go test -run=NONE -benchmem \
	-bench 'BenchmarkFabricSim$|BenchmarkFabricSimCosimOff$|BenchmarkRunParallel$|BenchmarkMaxMinDense$|BenchmarkTable3$|BenchmarkFig2$|BenchmarkTopoPaths|BenchmarkTopoSim|BenchmarkFaultSim$' \
	. >>"$tmp"
echo "running event-queue benchmark..." >&2
go test -run=NONE -benchmem -bench 'BenchmarkSchedule$' ./internal/sim >>"$tmp"
echo "running serve-path benchmarks..." >&2
go test -run=NONE -benchmem -bench 'BenchmarkServeBatch$|BenchmarkServeStream$' ./cmd/serve >>"$tmp"
echo "running disarmed-failpoint benchmark..." >&2
go test -run=NONE -benchmem -bench 'BenchmarkChaosDisarmed$' ./internal/chaos >>"$tmp"

echo "running serve-capacity comparison (singles vs /v1/batch)..." >&2
go build -o "$tmpdir/serve" ./cmd/serve
go build -o "$tmpdir/loadgen" ./cmd/loadgen
addr="127.0.0.1:18471"
# The queue must hold a full batch's rows: batch submissions admit every
# unique row into the pool at once, by design.
"$tmpdir/serve" -addr "$addr" -queue 4096 -loglevel warn &
pid=$!
trap 'kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null; rm -f "$tmp"; rm -rf "$tmpdir"' EXIT
for _ in $(seq 1 50); do
	if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
	sleep 0.1
done
"$tmpdir/loadgen" -addr "http://$addr" -compare -rows 1024 -batchrows 128 -conc 32 \
	-out "$tmpdir/capacity.json" >&2
kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null || true

# The seed baselines below were measured on this repo at the commit before
# the named optimization landed, same machine class.
awk -v out="$out" -v capfile="$tmpdir/capacity.json" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) {
		if ($(i+1) == "ns/op") ns[name] = $i
		if ($(i+1) == "B/op") bytes[name] = $i
		if ($(i+1) == "allocs/op") allocs[name] = $i
	}
	if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
	base["BenchmarkFabricSim"] = "{\"ns_per_op\": 577161, \"bytes_per_op\": 385824, \"allocs_per_op\": 3824}"
	base["BenchmarkTopoPathsDragonfly"] = "{\"ns_per_op\": 1520248, \"bytes_per_op\": 862656, \"allocs_per_op\": 7624}"
	base["BenchmarkTopoPathsTorus3D"] = "{\"ns_per_op\": 2036794, \"bytes_per_op\": 895616, \"allocs_per_op\": 8336}"
	base["BenchmarkFaultSim"] = "{\"ns_per_op\": 33617561, \"bytes_per_op\": 48634728, \"allocs_per_op\": 7387}"
	printf "{\n  \"benchmarks\": {\n" > out
	for (i = 1; i <= n; i++) {
		name = order[i]
		printf "    \"%s\": {\n", name >> out
		printf "      \"current\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
			ns[name], bytes[name], allocs[name] >> out
		if (name in base) printf ",\n      \"seed\": %s\n", base[name] >> out
		else printf "\n" >> out
		printf "    }%s\n", (i < n ? "," : "") >> out
	}
	printf "  },\n" >> out
	ncap = 0
	while ((getline line < capfile) > 0) caplines[++ncap] = line
	if (ncap > 0) {
		printf "  \"serve_capacity\": " >> out
		for (j = 1; j <= ncap; j++) {
			if (j == 1) printf "%s\n", caplines[j] >> out
			else if (j == ncap) printf "  %s,\n", caplines[j] >> out
			else printf "  %s\n", caplines[j] >> out
		}
	}
	printf "  \"notes\": \"seed = pre-optimization baseline (map-based MaxMin, per-run path enumeration, per-event heap allocation, per-call BFS scratch in topo paths, dense flows x fault-epochs route arena allocated per run); current = dense Solver + path cache + event free list + pooled path-enumeration scratch + per-flow fault-epoch windows in Sim scratch arenas. serve_capacity = cmd/loadgen -compare: the same 1024 distinct what-if rows as individual /v1/whatif requests vs 128-row /v1/batch submissions, goodput_ratio = batch rows/s over single rows/s. Regenerate with scripts/bench.sh.\"\n" >> out
	printf "}\n" >> out
}
' "$tmp"

echo "wrote $out" >&2
