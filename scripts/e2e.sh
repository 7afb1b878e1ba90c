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

# Crash leg: restart with small segments so the kill lands between
# seals, run load in the background, and SIGKILL the daemon mid-stream.
# No flush, no drain — whatever hit the disk is what recovery and the
# auditor get. The daemon checkpoints only at shutdown, which the kill
# skips, so each volume's journal holds every record acknowledged since
# this start and the restart must replay some. With any mid-run
# checkpoints a kill between one's rename and the next flush leaves
# nothing to replay; the unit tests cover kills inside a checkpoint.
"$work/smrd" -listen 127.0.0.1:0 -volumes "a,b=defrag+cache" \
	-journal-dir "$work/journal" -seal-every 8 -checkpoint-every 0 \
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

# Restart over the crashed journals: recovery must check the seals and
# the checkpoint pairing before replaying, and say so — with the timing
# detail operators watch.
"$work/smrd" -listen 127.0.0.1:0 -volumes "a,b=defrag+cache" \
	-journal-dir "$work/journal" -seal-every 8 -checkpoint-every 64 \
	>"$work/smrd3.log" 2>&1 &
pid=$!
wait_addr "$work/smrd3.log"
grep -q "verified=true" "$work/smrd3.log" || {
	echo "restart did not report verified recovery"; cat "$work/smrd3.log"; exit 1
}
grep -q "journal records replayed.* MB/s)" "$work/smrd3.log" || {
	echo "recovery line lacks replay count/duration/throughput detail"; cat "$work/smrd3.log"; exit 1
}
# Each volume must have replayed records, or the verified recovery above
# checked nothing.
for v in a b; do
	n=$(sed -n "s/.*volume $v recovered: checkpoint=[a-z]*, \([0-9]*\) journal records replayed.*/\1/p" "$work/smrd3.log")
	[ "${n:-0}" -gt 0 ] || {
		echo "restart replayed no records for volume $v"; cat "$work/smrd3.log"; exit 1
	}
	echo "SIGKILL leg: volume $v replayed $n journal records"
done

kill -TERM "$pid"
wait "$pid"

# The post-crash, post-recovery journals must audit clean too.
"$work/smrverify" "$work/journal" >"$work/audit2.log" || {
	echo "post-crash audit failed"; cat "$work/audit2.log"; exit 1
}

# Failed-restart leg: a volume that never checkpoints is killed, so its
# journal holds every acknowledged record. A restart whose resume
# checkpoint cannot be staged (checkpoint.tmp is a non-empty directory)
# must exit non-zero with that journal untouched; the next restart must
# replay exactly the records the audit counted, and audit clean after.
"$work/smrd" -listen 127.0.0.1:0 -volumes a -journal-dir "$work/fr" \
	-checkpoint-every 0 >"$work/smrd4.log" 2>&1 &
pid=$!
wait_addr "$work/smrd4.log"
"$work/smrload" -addr "$addr" -volumes a -workload w91 -scale 0.05 -conns 2 >"$work/load4.log"
kill -KILL "$pid"
wait "$pid" 2>/dev/null || true
"$work/smrverify" -json "$work/fr/a" >"$work/audit4.json" || {
	echo "audit of the killed volume failed"; cat "$work/audit4.json"; exit 1
}
want=$(( $(sed -n 's/.*"sealed_records":\([0-9]*\).*/\1/p' "$work/audit4.json") + \
	$(sed -n 's/.*"tail_records":\([0-9]*\).*/\1/p' "$work/audit4.json") ))
[ "$want" -gt 0 ] || { echo "killed volume's journal holds no records"; cat "$work/audit4.json"; exit 1; }
cp "$work/fr/a/journal.wal" "$work/fr-before.wal"
mkdir -p "$work/fr/a/checkpoint.tmp/x"
rc=0
timeout 20 "$work/smrd" -listen 127.0.0.1:0 -volumes a -journal-dir "$work/fr" \
	>"$work/smrd5.log" 2>&1 || rc=$?
[ "$rc" -ne 0 ] && [ "$rc" -ne 124 ] || {
	echo "restart over a blocked checkpoint.tmp: smrd exit $rc, want a failure"; cat "$work/smrd5.log"; exit 1
}
cmp -s "$work/fr/a/journal.wal" "$work/fr-before.wal" || {
	echo "failed restart changed the journal"; cat "$work/smrd5.log"; exit 1
}
rm -r "$work/fr/a/checkpoint.tmp"
"$work/smrd" -listen 127.0.0.1:0 -volumes a -journal-dir "$work/fr" >"$work/smrd6.log" 2>&1 &
pid=$!
wait_addr "$work/smrd6.log"
grep -q "volume a recovered: checkpoint=false, $want journal records replayed" "$work/smrd6.log" || {
	echo "restart did not replay the $want records the journal held"; cat "$work/smrd6.log"; exit 1
}
kill -TERM "$pid"
wait "$pid"
"$work/smrverify" "$work/fr" >"$work/audit5.log" || {
	echo "audit after the failed restart failed"; cat "$work/audit5.log"; exit 1
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
