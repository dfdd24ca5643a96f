#!/bin/sh
# ci.sh is the single source of truth for the repo's CI checks. The GitHub
# workflow (.github/workflows/ci.yml) calls one step per stage so the UI
# still shows a line per check, and developers reproduce CI locally with:
#
#   scripts/ci.sh all
#
# or run a single step, e.g. `scripts/ci.sh kill-resume-smoke`.
set -eu

cd "$(dirname "$0")/.."

# steps is the pipeline, in order: `all` runs it, the usage message lists
# it, and step_fmt checks that ci.yml runs exactly it. Step NAME runs the
# function step_NAME, dashes turned into underscores.
steps="fmt vet build test chaos-smoke jobs-race fault-determinism topologies-determinism cosim-determinism kill-resume-smoke metrics-smoke bench-smoke bench-guard loadgen-smoke cluster-smoke chaos-matrix fuzz-smoke"

step_fmt() {
	out="$(gofmt -l .)"
	if [ -n "$out" ]; then
		echo "gofmt needed on:" >&2
		echo "$out" >&2
		return 1
	fi
	# The workflow must run `scripts/ci.sh <step>` for exactly $steps, in
	# order, so a step added here cannot be missing from CI.
	wf="$(sed -n 's|^ *run: scripts/ci\.sh ||p' .github/workflows/ci.yml | tr '\n' ' ')"
	if [ "${wf% }" != "$steps" ]; then
		echo ".github/workflows/ci.yml runs steps: ${wf% }" >&2
		echo "scripts/ci.sh declares steps:      $steps" >&2
		return 1
	fi
}

# vet, build and test cover the root module and the bench/ module, which
# is its own Go module (go ./... in the root does not see it) but builds
# against the root's engine, netsim, jobs, admit, fault, topo and traffic.
step_vet() {
	go vet ./...
	(cd bench && go vet ./...)
}

step_build() {
	go build ./...
	(cd bench && go build ./...)
}

step_test() {
	go test -race ./...
	(cd bench && go test -race ./...)
}

# Chaos smoke, under the race detector: every test that builds a chaos
# plan — all of internal/chaos, the jobs journal-fault tests
# (TestJournal*), the cluster hedge and one-way-partition tests, and
# cmd/serve's journal and response-write fault tests — plus the other
# fault-injection, panic-containment and deadline paths.
step_chaos_smoke() {
	go test -race ./internal/chaos/
	go test -race -run 'Fault|Panic|Deadline|^TestJournal|^TestHedge|OneWayPartition' ./...
}

# Jobs race: the durable-job subsystem exercised twice under -race — its
# drain/resume/cancel paths are the most concurrency-sensitive code in the
# repo.
step_jobs_race() {
	go test -race -count=2 ./internal/jobs/
}

# Fault determinism: the same seed must print the same failure-rate table,
# and that table must match the checked-in golden file byte for byte, so a
# simulator change that moves the output fails here as well as in the
# cmd/netsim golden test.
step_fault_determinism() {
	tmp="$(mktemp -d)"
	trap 'rm -rf "$tmp"' EXIT
	go run ./cmd/netsim faults -seed 7 >"$tmp/faults1.txt"
	go run ./cmd/netsim faults -seed 7 >"$tmp/faults2.txt"
	cmp "$tmp/faults1.txt" "$tmp/faults2.txt"
	cmp "$tmp/faults1.txt" cmd/netsim/testdata/faults-s7.golden
}

# Kill-and-resume smoke: run a journaled job, kill the process dead (exit 3,
# no terminal record) right after row 2 checkpoints, resume it in a fresh
# process, and require the recovered table to be byte-identical to an
# uninterrupted run. The journal row counts must also match — the resumed
# run may not recompute rows that were already checkpointed.
step_kill_resume_smoke() {
	tmp="$(mktemp -d)"
	trap 'rm -rf "$tmp"' EXIT
	go build -o "$tmp/netsim" ./cmd/netsim

	rc=0
	"$tmp/netsim" -job -jobdir "$tmp/killed" -killrow 2 faults -seed 7 \
		>"$tmp/killed.txt" 2>/dev/null || rc=$?
	if [ "$rc" -ne 3 ]; then
		echo "killrow run exited $rc, want the dead-exit code 3" >&2
		return 1
	fi

	"$tmp/netsim" -resume -jobdir "$tmp/killed" >"$tmp/resumed.txt" 2>/dev/null
	"$tmp/netsim" -job -jobdir "$tmp/clean" faults -seed 7 \
		>"$tmp/clean.txt" 2>/dev/null

	if ! cmp "$tmp/resumed.txt" "$tmp/clean.txt"; then
		echo "resumed table differs from uninterrupted run" >&2
		return 1
	fi

	killed_rows="$(cat "$tmp"/killed/*.jsonl | grep -c '"t":"row"')"
	clean_rows="$(cat "$tmp"/clean/*.jsonl | grep -c '"t":"row"')"
	if [ "$killed_rows" -ne "$clean_rows" ]; then
		echo "journal row records: resumed=$killed_rows uninterrupted=$clean_rows (a checkpointed row was recomputed)" >&2
		return 1
	fi
	echo "kill-and-resume OK: byte-identical table, $killed_rows row records (no recompute)"
}

# Metrics smoke: boot the real server, drive a request through it, and
# validate /metrics with the strict exposition parser (cmd/expcheck) —
# HELP/TYPE on every family, histogram bucket monotonicity, label syntax.
step_metrics_smoke() {
	tmp="$(mktemp -d)"
	go build -o "$tmp/serve" ./cmd/serve
	go build -o "$tmp/expcheck" ./cmd/expcheck
	addr="127.0.0.1:18432"
	"$tmp/serve" -addr "$addr" -jobdir "$tmp/jobs" -loglevel warn &
	pid=$!
	trap 'kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null; rm -rf "$tmp"' EXIT
	"$tmp/expcheck" \
		-probe "http://$addr/healthz" \
		-probe "http://$addr/v1/whatif?gpus=64" \
		-require netpowerprop_engine_cache_misses_total \
		-require netpowerprop_engine_compute_duration_seconds \
		-require netpowerprop_http_requests_total \
		-require netpowerprop_jobs_submitted_total \
		-require netpowerprop_engine_compute_seconds_total \
		-require netpowerprop_engine_row_compute_seconds_total \
		-require netpowerprop_admit_allowed_total \
		-require netpowerprop_chaos_armed \
		"http://$addr/metrics"
}

# Topologies determinism: the cross-topology zoo comparison must print the
# same table twice — same seed, same fault trace, byte for byte — even
# though rows are built by a parallel fan-out and several generators route
# through the installed path enumerator. The table must also match the
# checked-in golden file, so a routing change that moves any byte fails.
step_topologies_determinism() {
	tmp="$(mktemp -d)"
	trap 'rm -rf "$tmp"' EXIT
	go run ./cmd/netsim topologies -hosts 16 -seed 7 >"$tmp/zoo1.txt"
	go run ./cmd/netsim topologies -hosts 16 -seed 7 >"$tmp/zoo2.txt"
	cmp "$tmp/zoo1.txt" "$tmp/zoo2.txt"
	cmp "$tmp/zoo1.txt" cmd/netsim/testdata/topologies-h16-s7.golden
}

# Co-simulation determinism: the same seeded topologies run three ways —
# in-process models, live against cmd/cosim-stub in echo mode (recording
# a cassette), and replayed from that cassette with no subprocess — must
# print the same table byte for byte. Also runs the cosim package's
# race-enabled tests, which cover the locked client under the engine's
# parallel row fan-out and torn-cassette fail-closed fallback.
step_cosim_determinism() {
	tmp="$(mktemp -d)"
	trap 'rm -rf "$tmp"' EXIT
	go build -o "$tmp/netsim" ./cmd/netsim
	go build -o "$tmp/cosim-stub" ./cmd/cosim-stub
	"$tmp/netsim" topologies -hosts 12 -seed 7 >"$tmp/plain.txt"
	"$tmp/netsim" -cosim "$tmp/cosim-stub" -cosim-record "$tmp/cassette.jsonl" \
		topologies -hosts 12 -seed 7 >"$tmp/live.txt"
	"$tmp/netsim" -cosim-replay "$tmp/cassette.jsonl" \
		topologies -hosts 12 -seed 7 >"$tmp/replay.txt"
	if ! cmp "$tmp/plain.txt" "$tmp/live.txt"; then
		echo "cosim live run differs from in-process models" >&2
		return 1
	fi
	if ! cmp "$tmp/plain.txt" "$tmp/replay.txt"; then
		echo "cosim cassette replay differs from in-process models" >&2
		return 1
	fi
	go test -race ./internal/cosim/
	echo "cosim-determinism OK: plain, live stub, and cassette replay byte-identical ($(wc -l <"$tmp/cassette.jsonl") cassette entries)"
}

step_bench_smoke() {
	go test -run=NONE -bench . -benchtime=1x ./...
}

# Bench guard: a short measured run of the hot-path benchmarks, five
# samples each, whose medians are compared against the frozen
# BENCH_netsim.json. The default x5 ns/op tolerance absorbs runner noise;
# override with BENCH_TOLERANCE for slower machines.
# allocs/op and B/op are held to x1.25 plus a small constant.
step_bench_guard() {
	tmp="$(mktemp -d)"
	trap 'rm -rf "$tmp"' EXIT
	go build -o "$tmp/benchguard" ./cmd/benchguard
	go test -run=NONE -benchmem -count 5 -benchtime=100x \
		-bench 'BenchmarkFabricSim$|BenchmarkFabricSimCosimOff$|BenchmarkMaxMinDense$|BenchmarkTopoPaths|BenchmarkTopoSim|BenchmarkFaultSim$|BenchmarkFaultRow$|BenchmarkZooRow$|BenchmarkEngineCacheHit$|BenchmarkEngineCacheMiss$|BenchmarkEngineBatchMiss$' \
		. >"$tmp/bench.out"
	go test -run=NONE -benchmem -count 5 -benchtime=100x \
		-bench 'BenchmarkServeBatch$|BenchmarkServeStream$|BenchmarkServeHit$' \
		./cmd/serve >>"$tmp/bench.out"
	go test -run=NONE -benchmem -count 5 -benchtime=10000x \
		-bench 'BenchmarkChaosDisarmed$' \
		./internal/chaos >>"$tmp/bench.out"
	"$tmp/benchguard" -baseline BENCH_netsim.json "$tmp/bench.out"
}

# Loadgen smoke: boot the real server, offer a seeded mixed workload
# (point queries, sweeps, batches, NDJSON streams) open-loop, and require
# zero errors; then run the singles-vs-batch capacity comparison and
# require /v1/batch to sustain at least 2x the goodput of the same rows
# as individual requests — the claim BENCH_netsim.json records.
step_loadgen_smoke() {
	tmp="$(mktemp -d)"
	go build -o "$tmp/serve" ./cmd/serve
	go build -o "$tmp/loadgen" ./cmd/loadgen
	addr="127.0.0.1:18461"
	# Queue deep enough to hold a batch's rows: batch submissions admit
	# every unique row into the pool at once, by design.
	"$tmp/serve" -addr "$addr" -queue 4096 -loglevel warn &
	pid=$!
	trap 'kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null; rm -rf "$tmp"' EXIT
	for _ in $(seq 1 50); do
		if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
		sleep 0.1
	done
	"$tmp/loadgen" -addr "http://$addr" -mix mixed -rps 150 -duration 2s -seed 7 -maxerr 0
	"$tmp/loadgen" -addr "http://$addr" -compare -rows 1024 -batchrows 128 -conc 32 -minratio 2
}

# Cluster smoke: boot three gossiping replicas (serve built with -race)
# plus a single-node control, spray the seeded mixed workload across all
# three replicas, and SIGKILL one mid-run. Three things must hold:
#
#   1. The load run ends with zero failed rows — survivors absorb the dead
#      replica's keyspace (degraded local compute) and the client fails
#      over, so the kill is invisible to the workload.
#   2. A sweep stream cut off by the kill resumes on a survivor with
#      Last-Row, and the spliced bytes equal the single-node golden.
#   3. A journaled job running on the killed replica is adopted from the
#      shared job directory by a survivor (lease expiry + claim sweep) and
#      finishes without recomputing checkpointed rows: the journal's row
#      record count matches an uninterrupted single-node run's.
step_cluster_smoke() {
	tmp="$(mktemp -d)"
	go build -race -o "$tmp/serve" ./cmd/serve
	go build -o "$tmp/loadgen" ./cmd/loadgen
	a="127.0.0.1:18471"
	b="127.0.0.1:18472"
	c="127.0.0.1:18473"
	solo="127.0.0.1:18474"
	peers="http://$a,http://$b,http://$c"
	for addr in "$a" "$b" "$c"; do
		"$tmp/serve" -addr "$addr" -peers "$peers" -cluster-addr "http://$addr" \
			-gossip-interval 100ms -jobdir "$tmp/jobs" -leasettl 2s \
			-queue 4096 -loglevel warn &
		eval "p_${addr##*:}=$!"
	done
	"$tmp/serve" -addr "$solo" -jobdir "$tmp/jobs-solo" -queue 4096 -loglevel warn &
	p_solo=$!
	pids="$p_18471 $p_18472 $p_18473 $p_solo"
	# The trap runs under set -e, and one replica is already SIGKILLed.
	trap 'kill $pids 2>/dev/null || true; wait $pids 2>/dev/null || true; rm -rf "$tmp"' EXIT
	for addr in "$a" "$b" "$c" "$solo"; do
		for _ in $(seq 1 100); do
			if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
			sleep 0.1
		done
	done

	# Golden: one uninterrupted sweep stream from the single-node control.
	curl -sf "http://$solo/v1/sweep?steps=40&stream=1" >"$tmp/golden.ndjson"

	# Cut stream: the first 10 frames from the replica about to die.
	curl -sfN "http://$c/v1/sweep?steps=40&stream=1" | head -n 10 >"$tmp/head.ndjson"

	# Journaled job on the doomed replica, plus the uninterrupted control
	# run of the same job on the single node. Wait until the doomed job is
	# checkpointing rows so the kill lands mid-job.
	id="$(curl -sf -X POST "http://$c/v1/jobs" -d '{"op":"sweep","steps":20000}' |
		grep -o '"id": *"[^"]*"' | head -n 1 | sed 's/.*"\([^"]*\)"$/\1/')"
	if [ -z "$id" ]; then
		echo "job submission to $c returned no id" >&2
		return 1
	fi
	curl -sf -X POST "http://$solo/v1/jobs" -d '{"op":"sweep","steps":20000}' >/dev/null
	for _ in $(seq 1 200); do
		rows="$(cat "$tmp"/jobs/*.jsonl 2>/dev/null | grep -c '"t":"row"')" || rows=0
		if [ "$rows" -ge 500 ]; then break; fi
		sleep 0.05
	done

	# Open-loop spray across all three replicas; kill one a second in.
	"$tmp/loadgen" -peers "$peers" -mix mixed -rps 60 -duration 4s -seed 7 \
		-maxerr 0 >"$tmp/loadgen.out" &
	lg=$!
	sleep 1
	kill -9 "$p_18473"
	rc=0
	wait "$lg" || rc=$?
	cat "$tmp/loadgen.out"
	if [ "$rc" -ne 0 ]; then
		echo "loadgen failed ($rc): the replica kill was client-visible" >&2
		return 1
	fi

	# Resume the cut stream on a survivor: Last-Row names the last frame
	# the client holds; head + tail must equal the golden byte for byte.
	curl -sf -H "Last-Row: 9" "http://$a/v1/sweep?steps=40&stream=1" >"$tmp/tail.ndjson"
	cat "$tmp/head.ndjson" "$tmp/tail.ndjson" >"$tmp/spliced.ndjson"
	if ! cmp "$tmp/golden.ndjson" "$tmp/spliced.ndjson"; then
		echo "spliced failover stream differs from the single-node golden" >&2
		return 1
	fi

	# The killed replica's job must finish on a survivor.
	adopted=""
	for _ in $(seq 1 300); do
		for addr in "$a" "$b"; do
			if curl -sf "http://$addr/v1/jobs/$id" 2>/dev/null | grep -q '"state": *"done"'; then
				adopted="$addr"
				break
			fi
		done
		if [ -n "$adopted" ]; then break; fi
		sleep 0.1
	done
	if [ -z "$adopted" ]; then
		echo "job $id was not adopted and finished by a survivor within 30s" >&2
		return 1
	fi

	# No recompute: wait out the control job, then compare row records.
	for _ in $(seq 1 300); do
		if curl -sf "http://$solo/v1/jobs" | grep -q '"state": *"done"'; then break; fi
		sleep 0.1
	done
	killed_rows="$(cat "$tmp"/jobs/*.jsonl | grep -c '"t":"row"')"
	clean_rows="$(cat "$tmp"/jobs-solo/*.jsonl | grep -c '"t":"row"')"
	if [ "$killed_rows" -ne "$clean_rows" ]; then
		echo "journal row records: cluster=$killed_rows single-node=$clean_rows (a checkpointed row was recomputed)" >&2
		return 1
	fi
	echo "cluster smoke OK: kill invisible to the workload, byte-identical stream splice, job adopted by $adopted with $killed_rows row records (no recompute)"
}

step_fuzz_smoke() {
	go test -run=NONE -fuzz 'FuzzMaxMinDense$' -fuzztime=200x ./internal/netsim
}

# wait_healthz polls a replica's /healthz until it answers.
wait_healthz() {
	for _ in $(seq 1 100); do
		if curl -sf "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
		sleep 0.1
	done
	echo "replica $1 never became healthy" >&2
	return 1
}

# admit_allowed_sum totals netpowerprop_admit_allowed_total (all priority
# classes) across the given replicas — the "admission charged exactly
# once" probe.
admit_allowed_sum() {
	total=0
	for addr in "$@"; do
		v="$(curl -sf "http://$addr/metrics" |
			awk '/^netpowerprop_admit_allowed_total/ {s+=$2} END {printf "%d", s}')"
		total=$((total + ${v:-0}))
	done
	echo "$total"
}

# chaos_matrix_seed runs one fault schedule: a 3-replica -race cluster,
# each replica armed with a seed-derived count-bounded failpoint plan
# (forward errors and drops, added RTT, gossip drops, response-write
# latency), then checks the run's invariants:
#
#   1. 20 point queries sprayed across the replicas under live faults
#      charge admission exactly once each (forwards and hedges carry
#      X-Forwarded-Admit; degrades reuse the ingress charge).
#   2. The seeded mixed open-loop workload ends with zero failed rows.
#   3. A sweep stream from every replica is byte-identical to the
#      fault-free control's.
#   4. At least one fault actually injected (the schedule is not inert).
#   5. Every circuit breaker re-closes once the bounded faults clear.
chaos_matrix_seed() {
	seed="$1"
	tmp="$2"
	ma="127.0.0.1:18481"
	mb="127.0.0.1:18482"
	mc="127.0.0.1:18483"
	mpeers="http://$ma,http://$mb,http://$mc"
	spec_a="seed=$seed;site=cluster.forward.send kind=error count=6;site=cluster.gossip.send kind=drop count=4"
	spec_b="seed=$seed;site=cluster.forward.rtt kind=latency delay=40ms count=10;site=cluster.gossip.deliver kind=drop count=4"
	spec_c="seed=$seed;site=serve.response.write kind=latency delay=15ms count=6;site=cluster.forward.send kind=drop count=2"
	mpids=""
	for entry in "$ma|$spec_a" "$mb|$spec_b" "$mc|$spec_c"; do
		addr="${entry%%|*}"
		spec="${entry#*|}"
		"$tmp/serve" -addr "$addr" -peers "$mpeers" -cluster-addr "http://$addr" \
			-gossip-interval 100ms -hedge 50ms -gossip-seed "$seed" \
			-queue 4096 -loglevel warn -chaos "$spec" &
		mpids="$mpids $!"
	done
	MATRIX_PIDS="$MATRIX_PIDS $mpids"
	for addr in "$ma" "$mb" "$mc"; do
		wait_healthz "$addr" || return 1
	done

	# Invariant 1: exactly-once admission while faults are live.
	before="$(admit_allowed_sum "$ma" "$mb" "$mc")"
	j=0
	while [ "$j" -lt 20 ]; do
		case $((j % 3)) in
		0) tgt="$ma" ;;
		1) tgt="$mb" ;;
		2) tgt="$mc" ;;
		esac
		curl -sf "http://$tgt/v1/whatif?gpus=$((3000 + j))" >/dev/null || {
			echo "point query $j to $tgt failed client-visibly under faults" >&2
			return 1
		}
		j=$((j + 1))
	done
	after="$(admit_allowed_sum "$ma" "$mb" "$mc")"
	if [ $((after - before)) -ne 20 ]; then
		echo "admission charged $((after - before)) times for 20 requests (double or lost charge)" >&2
		return 1
	fi

	# Invariant 2: the seeded open-loop workload sees zero failures.
	rc=0
	"$tmp/loadgen" -peers "$mpeers" -mix mixed -rps 60 -duration 3s \
		-seed "$seed" -maxerr 0 >"$tmp/loadgen-$seed.out" 2>&1 || rc=$?
	if [ "$rc" -ne 0 ]; then
		cat "$tmp/loadgen-$seed.out"
		echo "loadgen failed ($rc): injected faults were client-visible" >&2
		return 1
	fi

	# Invariant 3: every replica's stream is byte-identical to the
	# fault-free control's.
	for addr in "$ma" "$mb" "$mc"; do
		curl -sf "http://$addr/v1/sweep?steps=40&stream=1" >"$tmp/sweep-$seed.ndjson" || return 1
		if ! cmp "$tmp/golden.ndjson" "$tmp/sweep-$seed.ndjson"; then
			echo "replica $addr stream differs from the fault-free control" >&2
			return 1
		fi
	done

	# Invariant 4: the schedule was not inert.
	inj=0
	for addr in "$ma" "$mb" "$mc"; do
		if curl -sf "http://$addr/v1/cluster" | grep -q '"chaos_injected": *[1-9]'; then
			inj=1
		fi
	done
	if [ "$inj" -ne 1 ]; then
		echo "no faults injected — the schedule never fired" >&2
		return 1
	fi

	# Invariant 5: breakers re-close once the count-bounded faults are
	# spent. Probe traffic gives half-open circuits their trial request.
	deadline=$(($(date +%s) + 20))
	k=0
	while :; do
		k=$((k + 1))
		for addr in "$ma" "$mb" "$mc"; do
			curl -sf "http://$addr/v1/whatif?gpus=$((9000 + k))" >/dev/null 2>&1 || true
		done
		open=0
		for addr in "$ma" "$mb" "$mc"; do
			if curl -sf "http://$addr/v1/cluster" | grep -Eq '"state": *"(half-)?open"'; then
				open=1
			fi
		done
		if [ "$open" -eq 0 ]; then break; fi
		if [ "$(date +%s)" -ge "$deadline" ]; then
			echo "a circuit breaker never re-closed after the faults cleared" >&2
			return 1
		fi
		sleep 0.3
	done

	kill $mpids 2>/dev/null
	wait $mpids 2>/dev/null
	echo "chaos-matrix seed=$seed OK"
}

# chaos_matrix_journal is the durability leg: an injected fsync failure
# mid-job must interrupt the job, flip /healthz to degraded, 503 new
# submits while compute traffic keeps serving, and a chaos-free restart
# must resume the job from its checkpoint — journal row records equal an
# uninterrupted control run's, so nothing checkpointed was recomputed.
chaos_matrix_journal() {
	tmp="$1"
	jaddr="127.0.0.1:18486"
	jctl="127.0.0.1:18487"
	"$tmp/serve" -addr "$jctl" -jobdir "$tmp/jm-ctl" -queue 4096 -loglevel warn &
	MATRIX_PIDS="$MATRIX_PIDS $!"
	"$tmp/serve" -addr "$jaddr" -jobdir "$tmp/jm" -queue 4096 -loglevel warn \
		-chaos "seed=7;site=jobs.journal.fsync kind=fsyncfail count=1 after=40" &
	jp=$!
	MATRIX_PIDS="$MATRIX_PIDS $jp"
	wait_healthz "$jaddr" || return 1
	wait_healthz "$jctl" || return 1

	body='{"op":"sweep","steps":200}'
	id="$(curl -sf -X POST "http://$jaddr/v1/jobs" -d "$body" |
		grep -o '"id": *"[^"]*"' | head -n 1 | sed 's/.*"\([^"]*\)"$/\1/')"
	if [ -z "$id" ]; then
		echo "journal leg: job submission returned no id" >&2
		return 1
	fi
	curl -sf -X POST "http://$jctl/v1/jobs" -d "$body" >/dev/null

	# The fsync fault fires at the 41st append (row 40): the job must
	# land interrupted, not failed and not done.
	hit=""
	for _ in $(seq 1 200); do
		if curl -sf "http://$jaddr/v1/jobs/$id" | grep -q '"state": *"interrupted"'; then
			hit=1
			break
		fi
		sleep 0.05
	done
	if [ -z "$hit" ]; then
		echo "journal leg: job never interrupted on the injected fsync failure" >&2
		return 1
	fi
	if ! curl -sf "http://$jaddr/healthz" | grep -q '"status": *"degraded"'; then
		echo "journal leg: /healthz not degraded after the journal fault" >&2
		return 1
	fi
	code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$jaddr/v1/jobs" -d '{"op":"sweep","steps":4}')"
	if [ "$code" != 503 ]; then
		echo "journal leg: submit during degradation answered $code, want 503" >&2
		return 1
	fi
	if ! curl -sf "http://$jaddr/v1/whatif?gpus=64" >/dev/null; then
		echo "journal leg: compute-only traffic failed during journal degradation" >&2
		return 1
	fi

	# Chaos-free restart over the same journal dir: resume, finish, and
	# recompute nothing that was checkpointed.
	kill "$jp" 2>/dev/null
	wait "$jp" 2>/dev/null
	"$tmp/serve" -addr "$jaddr" -jobdir "$tmp/jm" -queue 4096 -loglevel warn &
	MATRIX_PIDS="$MATRIX_PIDS $!"
	wait_healthz "$jaddr" || return 1
	fin=""
	for _ in $(seq 1 300); do
		if curl -sf "http://$jaddr/v1/jobs/$id" | grep -q '"state": *"done"'; then
			fin=1
			break
		fi
		sleep 0.05
	done
	if [ -z "$fin" ]; then
		echo "journal leg: resumed job never finished" >&2
		return 1
	fi
	for _ in $(seq 1 300); do
		if curl -sf "http://$jctl/v1/jobs/$id" | grep -q '"state": *"done"'; then break; fi
		sleep 0.05
	done
	faulted_rows="$(cat "$tmp"/jm/*.jsonl | grep -c '"t":"row"')"
	control_rows="$(cat "$tmp"/jm-ctl/*.jsonl | grep -c '"t":"row"')"
	if [ "$faulted_rows" -ne "$control_rows" ]; then
		echo "journal leg: row records faulted=$faulted_rows control=$control_rows (a checkpointed row was recomputed)" >&2
		return 1
	fi
	echo "chaos-matrix journal leg OK: interrupted -> degraded -> resumed with $faulted_rows row records (no recompute)"
}

# Chaos matrix: the PR's capstone gate. A seeded sweep of deterministic
# fault schedules over a 3-replica -race cluster under mixed open-loop
# load, plus a journal-fault durability leg. Every schedule is count-
# bounded, so the cluster must not only survive the faults but fully
# heal: breakers re-closed, streams byte-identical to a fault-free
# control, admission charged exactly once per request, journals resumed
# with no recomputed rows. The failing seed is printed for single-seed
# reproduction (CHAOS_SEEDS=<seed> scripts/ci.sh chaos-matrix).
step_chaos_matrix() {
	tmp="$(mktemp -d)"
	MATRIX_PIDS=""
	# Each seed's replicas are already killed and reaped when the trap
	# runs, so kill reports failure for them; under set -e that status
	# alone would fail a step whose invariants all held.
	trap 'kill $MATRIX_PIDS 2>/dev/null || true; wait $MATRIX_PIDS 2>/dev/null || true; rm -rf "$tmp"' EXIT
	go build -race -o "$tmp/serve" ./cmd/serve
	go build -o "$tmp/loadgen" ./cmd/loadgen

	# Fault-free control: the golden stream every faulted replica must
	# still reproduce byte for byte.
	control="127.0.0.1:18480"
	"$tmp/serve" -addr "$control" -queue 4096 -loglevel warn &
	MATRIX_PIDS="$MATRIX_PIDS $!"
	wait_healthz "$control"
	curl -sf "http://$control/v1/sweep?steps=40&stream=1" >"$tmp/golden.ndjson"

	for seed in ${CHAOS_SEEDS:-3 7 11 23 42}; do
		if ! chaos_matrix_seed "$seed" "$tmp"; then
			echo "chaos-matrix FAILED at seed=$seed" >&2
			echo "reproduce just this schedule with: CHAOS_SEEDS=$seed scripts/ci.sh chaos-matrix" >&2
			return 1
		fi
	done
	if ! chaos_matrix_journal "$tmp"; then
		echo "chaos-matrix FAILED in the journal-fault leg (fixed seed=7)" >&2
		echo "reproduce with: CHAOS_SEEDS='' scripts/ci.sh chaos-matrix" >&2
		return 1
	fi
	echo "chaos-matrix OK: schedules [${CHAOS_SEEDS:-3 7 11 23 42}] + journal leg survived with all invariants intact"
}

run_step() {
	echo "=== ci: $1 ===" >&2
	case "$1" in
	"" | *[!a-z-]*) ;;
	*)
		case " $steps " in
		*" $1 "*)
			"step_$(echo "$1" | tr - _)"
			return
			;;
		esac
		;;
	esac
	echo "unknown step: $1" >&2
	echo "steps: $steps all" >&2
	return 2
}

if [ $# -eq 0 ]; then
	set -- all
fi

if [ "$1" = all ]; then
	for s in $steps; do
		# Steps that set EXIT traps get a subshell so temp dirs clean up
		# per step rather than at script exit.
		(run_step "$s")
	done
	echo "=== ci: all steps passed ===" >&2
else
	(run_step "$1")
fi
