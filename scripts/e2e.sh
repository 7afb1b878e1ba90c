#!/bin/sh
# End-to-end smoke for the smrd service: build the real binaries, start
# the daemon on an ephemeral port, drive it with smrload over several
# connections, and shut it down cleanly. Exercises the whole stack —
# wire protocol, volume actors, backpressure path, graceful shutdown —
# exactly the way an operator would. Then the hard part: SIGKILL the
# daemon mid-load, restart it over the same journals (verified
# recovery), and audit everything offline with smrverify — including a
# seeded-corruption run that must fail.
#
# Run from the repo root: scripts/e2e.sh
set -eu

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$work"' EXIT

go build -o "$work/smrd" ./cmd/smrd
go build -o "$work/smrload" ./cmd/smrload
go build -o "$work/smrverify" ./cmd/smrverify

# wait_addr LOGFILE: the daemon prints its bound address once the
# listener is up; scrape it into $addr. The log may not exist yet: the
# background child, not this shell, creates it.
wait_addr() {
	addr=
	for _ in $(seq 1 100); do
		addr=$(sed -n 's/.*listening on \([^ ]*\).*/\1/p' "$1" 2>/dev/null) || true
		[ -n "$addr" ] && break
		kill -0 "$pid" 2>/dev/null || { cat "$1"; exit 1; }
		sleep 0.1
	done
	[ -n "$addr" ] || { echo "smrd never listened"; cat "$1"; exit 1; }
}

"$work/smrd" -listen 127.0.0.1:0 -volumes "a,b=defrag+cache" \
	-journal-dir "$work/journal" >"$work/smrd.log" 2>&1 &
pid=$!
wait_addr "$work/smrd.log"

"$work/smrload" -addr "$addr" -volumes a,b -workload w91 -scale 0.05 -conns 4

# Same daemon, pipelined client: a full SMRD2 window in flight per
# connection. Success means every record completed — the driver errors
# out if any acked op is lost or any record exhausts its retries.
"$work/smrload" -addr "$addr" -volumes a,b -workload w91 -scale 0.05 -conns 4 \
	-window 32 >"$work/load1p.log" || {
	echo "pipelined load failed"; cat "$work/load1p.log"; exit 1
}
grep -q "pipelined (window 32)" "$work/load1p.log" || {
	echo "pipelined run not reported"; cat "$work/load1p.log"; exit 1
}

# A submit error that is not a transport failure (a volume name too long
# to encode) must end the run with exit 1, not retry it forever (124).
long=$(printf '%0300d' 0)
rc=0
timeout 10 "$work/smrload" -addr "$addr" -volumes "$long" -workload w91 \
	-scale 0.05 -conns 2 -window 32 >"$work/loadbad.log" 2>&1 || rc=$?
[ "$rc" -eq 1 ] || {
	echo "over-long volume name: smrload exit $rc, want 1"; cat "$work/loadbad.log"; exit 1
}

# Graceful shutdown must drain, checkpoint and print the summary table.
kill -TERM "$pid"
wait "$pid"
grep -q "per-volume summary" "$work/smrd.log" || {
	echo "no shutdown summary"; cat "$work/smrd.log"; exit 1
}
# Journaled volumes must leave a checkpoint behind.
[ -f "$work/journal/a/checkpoint.ckpt" ] || {
	echo "no checkpoint for volume a"; ls "$work/journal/a" || true; exit 1
}

# The journals the clean shutdown left behind must audit clean.
"$work/smrverify" "$work/journal" >"$work/audit1.log" || {
	echo "post-shutdown audit failed"; cat "$work/audit1.log"; exit 1
}

# Crash leg: restart with small segments and checkpoint intervals so the
# kill lands between seals, run load in the background, and SIGKILL the
# daemon mid-stream. No flush, no drain — whatever hit the disk is what
# recovery and the auditor get.
"$work/smrd" -listen 127.0.0.1:0 -volumes "a,b=defrag+cache" \
	-journal-dir "$work/journal" -seal-every 8 -checkpoint-every 64 \
	>"$work/smrd2.log" 2>&1 &
pid=$!
wait_addr "$work/smrd2.log"
"$work/smrload" -addr "$addr" -volumes a,b -workload w91 -scale 1.0 -conns 4 \
	>"$work/load2.log" 2>&1 &
loadpid=$!
# A second, pipelined load keeps 32 requests in flight per connection,
# so the kill lands while an actor holds a batch's results for its one
# journal write.
"$work/smrload" -addr "$addr" -volumes a,b -workload w91 -scale 1.0 -conns 4 \
	-window 32 >"$work/load2p.log" 2>&1 &
loadppid=$!
sleep 0.4
kill -KILL "$pid"
wait "$loadpid" 2>/dev/null || true # load dies with the daemon; that's the point
wait "$loadppid" 2>/dev/null || true

# Restart over the crashed journals: recovery must verify the seal
# chains before replaying, and say so — with the parallel verification
# pipeline (-recover-workers) and the timing detail operators watch.
"$work/smrd" -listen 127.0.0.1:0 -volumes "a,b=defrag+cache" \
	-journal-dir "$work/journal" -seal-every 8 -checkpoint-every 64 \
	-recover-workers 2 >"$work/smrd3.log" 2>&1 &
pid=$!
wait_addr "$work/smrd3.log"
grep -q "verified=true" "$work/smrd3.log" || {
	echo "restart did not report verified recovery"; cat "$work/smrd3.log"; exit 1
}
grep -q "MB/s, workers=2" "$work/smrd3.log" || {
	echo "recovery line lacks duration/throughput/worker detail"; cat "$work/smrd3.log"; exit 1
}

kill -TERM "$pid"
wait "$pid"

# The post-crash, post-recovery journals must audit clean too — through
# the parallel audit core, which must agree with the sequential one.
"$work/smrverify" -j 2 "$work/journal" >"$work/audit2.log" || {
	echo "post-crash audit failed"; cat "$work/audit2.log"; exit 1
}
"$work/smrverify" "$work/journal" >"$work/audit2seq.log" || {
	echo "sequential post-crash audit failed"; cat "$work/audit2seq.log"; exit 1
}
cmp -s "$work/audit2.log" "$work/audit2seq.log" || {
	echo "parallel audit diverges from sequential audit"
	diff "$work/audit2seq.log" "$work/audit2.log" || true; exit 1
}

# Seeded corruption: truncating the checkpoint must make the audit fail
# loudly — smrverify exits non-zero and names the damage.
truncate -s -1 "$work/journal/a/checkpoint.ckpt"
if "$work/smrverify" "$work/journal" >"$work/audit3.log" 2>&1; then
	echo "smrverify passed a truncated checkpoint"; cat "$work/audit3.log"; exit 1
fi
grep -q "CORRUPT" "$work/audit3.log" || {
	echo "no CORRUPT verdict for seeded damage"; cat "$work/audit3.log"; exit 1
}

echo "e2e ok ($addr)"
