#!/bin/sh
# bench.sh runs the simulator hot-path benchmarks and writes
# BENCH_netsim.json at the repo root: current ns/op, B/op, and allocs/op
# for each benchmark, alongside the frozen pre-optimization seed numbers
# so the speedup is visible without digging through git history. Each
# benchmark runs five times and "current" is its median sample by ns/op
# (the upper of the middle two for an even count), the sample
# cmd/benchguard judges a repeated run by. A "host"
# block records the CPU count, CPU model and Go version the numbers were
# measured with, so a re-record on other hardware is visible as one.
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
go test -run=NONE -benchmem -count 5 \
	-bench 'BenchmarkFabricSim$|BenchmarkFabricSimCosimOff$|BenchmarkMaxMinDense$|BenchmarkTable3$|BenchmarkFig2$|BenchmarkTopoPaths|BenchmarkTopoSim|BenchmarkFaultSim$|BenchmarkFaultRow$|BenchmarkZooRow$|BenchmarkZooRequest$|BenchmarkEngineCacheHit$|BenchmarkEngineCacheMiss$|BenchmarkEngineBatchMiss$' \
	. >>"$tmp"
echo "running event-queue benchmark..." >&2
go test -run=NONE -benchmem -count 5 -bench 'BenchmarkSchedule$' ./internal/sim >>"$tmp"
echo "running serve-path benchmarks..." >&2
go test -run=NONE -benchmem -count 5 -bench 'BenchmarkServeBatch$|BenchmarkServeStream$|BenchmarkServeHit$' ./cmd/serve >>"$tmp"
echo "running disarmed-failpoint benchmark..." >&2
go test -run=NONE -benchmem -count 5 -bench 'BenchmarkChaosDisarmed$' ./internal/chaos >>"$tmp"

echo "running serve-capacity comparison (singles vs /v1/batch)..." >&2
go build -o "$tmpdir/serve" ./cmd/serve
go build -o "$tmpdir/loadgen" ./cmd/loadgen
addr="127.0.0.1:18471"
# The queue must hold a full batch's rows: batch submissions admit every
# unique row into the pool at once, by design.
"$tmpdir/serve" -addr "$addr" -queue 4096 -loglevel warn &
pid=$!
# The trap runs under set -e, and the server is normally stopped already.
trap 'kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; rm -f "$tmp"; rm -rf "$tmpdir"' EXIT
for _ in $(seq 1 50); do
	if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
	sleep 0.1
done
"$tmpdir/loadgen" -addr "http://$addr" -compare -rows 1024 -batchrows 128 -conc 32 \
	-out "$tmpdir/capacity.json" >&2
kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null || true

nproc="$(getconf _NPROCESSORS_ONLN)"
cpu="$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"
gover="$(go env GOVERSION)"

# The seed baselines below were measured on this repo at the commit before
# the named optimization landed, same machine class.
awk -v out="$out" -v capfile="$tmpdir/capacity.json" \
	-v nproc="$nproc" -v cpu="${cpu:-unknown}" -v gover="$gover" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	k = ++count[name]
	for (i = 2; i <= NF; i++) {
		if ($(i+1) == "ns/op") ns[name, k] = $i
		if ($(i+1) == "B/op") bytes[name, k] = $i
		if ($(i+1) == "allocs/op") allocs[name, k] = $i
	}
	if (k == 1) order[++n] = name
}
# median returns the sample index of the median of name by ns/op: the upper of
# the middle two for an even count, as cmd/benchguard picks it.
function median(name,    c, i, j, t, idx) {
	c = count[name]
	for (i = 1; i <= c; i++) idx[i] = i
	for (i = 2; i <= c; i++)
		for (j = i; j > 1 && ns[name, idx[j]] + 0 < ns[name, idx[j-1]] + 0; j--) {
			t = idx[j]; idx[j] = idx[j-1]; idx[j-1] = t
		}
	return idx[int(c / 2) + 1]
}
END {
	base["BenchmarkFabricSim"] = "{\"ns_per_op\": 577161, \"bytes_per_op\": 385824, \"allocs_per_op\": 3824}"
	base["BenchmarkTopoPathsDragonfly"] = "{\"ns_per_op\": 1520248, \"bytes_per_op\": 862656, \"allocs_per_op\": 7624}"
	base["BenchmarkTopoPathsTorus3D"] = "{\"ns_per_op\": 2036794, \"bytes_per_op\": 895616, \"allocs_per_op\": 8336}"
	base["BenchmarkFaultSim"] = "{\"ns_per_op\": 33617561, \"bytes_per_op\": 48634728, \"allocs_per_op\": 7387}"
	base["BenchmarkZooRow"] = "{\"ns_per_op\": 35503637, \"bytes_per_op\": 6835742, \"allocs_per_op\": 76301}"
	gsub(/[\\"]/, "\\\\&", cpu)
	printf "{\n  \"host\": {\"nproc\": %d, \"cpu\": \"%s\", \"go\": \"%s\"},\n", nproc, cpu, gover > out
	printf "  \"benchmarks\": {\n" >> out
	for (i = 1; i <= n; i++) {
		name = order[i]
		m = median(name)
		printf "    \"%s\": {\n", name >> out
		printf "      \"current\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
			ns[name, m], bytes[name, m], allocs[name, m] >> out
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
	printf "  \"notes\": \"seed = pre-optimization baseline (map-based MaxMin, per-run path enumeration, per-event heap allocation, per-call BFS scratch in topo paths, dense flows x fault-epochs route arena allocated per run, per-path switch lists and a map switch set in cold ConcentrateRouting rows); current = dense Solver + path cache + event free list + pooled path-enumeration scratch + per-flow fault-epoch windows in Sim scratch arenas + exact-size path arenas, one switch arena per path set and a dense switch set + change-only trace emission into one ID-indexed segment arena and reuse of a repeated interval solve + one fused interval pass (active set, solve and accumulate per interval; no per-interval arenas or per-epoch capacity copies) + warm Sims owned by the engine worker slots and pointer-free flow stats + per-destination BFS fields and a compact path table (link, end and switch arenas, path sets from a slab) kept across topologies. BenchmarkFaultRow is BenchmarkFaultSim'"'"'s row through a worker slot whose Sim stays warm; BenchmarkFaultSim stays the cold case. BenchmarkZooRequest is one 32-host topologies request, all eight zoo rows, through one worker slot whose Sim and path table stay warm across topologies; BenchmarkZooRow stays the cold row. BenchmarkTopoPaths* enumerate through AppendPaths into reused buffers, as the path table calls it. BenchmarkEngineCacheHit and BenchmarkEngineCacheMiss are one engine Do answered from the cache and one cold whatif; BenchmarkEngineBatchMiss is one 64-row DoBatch of 32 fresh whatif keys each sent twice, so every key misses and fans out to its duplicate. BenchmarkServeHit is one buffered GET cache hit through the HTTP handler, in the whatif-hot 70/15/15 whatif/cost/table3 mix, written from the result bytes memoized on its cache entry. current = the median of 5 samples by ns/op. serve_capacity = cmd/loadgen -compare: the same 1024 distinct what-if rows as individual /v1/whatif requests vs 128-row /v1/batch submissions, goodput_ratio = batch rows/s over single rows/s. Regenerate with scripts/bench.sh.\"\n" >> out
	printf "}\n" >> out
}
' "$tmp"

echo "wrote $out" >&2
