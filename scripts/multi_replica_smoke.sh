#!/usr/bin/env bash
# Multi-replica smoke: boot a 3-replica reprod fleet over one shared
# checkpoint directory, point reprobench -strict at all three, and make
# sure a single drain signal takes every replica down cleanly.
#
# Replica r2 runs with chaos injections armed (-chaos-prob 1): the
# fleet-level contract is that error injections at the lease and
# store-write sites degrade a replica, never fail its requests.
set -euo pipefail

workdir=$(mktemp -d)
ckpt="$workdir/ckpt"
mkdir -p "$ckpt"
pids=()

cleanup() {
    if [ "${#pids[@]}" -gt 0 ]; then
        kill "${pids[@]}" 2>/dev/null || true
        wait 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building =="
go build -o "$workdir/reprod" ./cmd/reprod
go build -o "$workdir/reprobench" ./cmd/reprobench

scenario=(-machines 4 -sim-days 1 -workload-days 1)

# boot NAME [extra flags...] — starts a replica on an ephemeral port in
# the background. Runs in the main shell (no command substitution) so
# the pid lands in pids[]; the bound address comes from wait_addr.
boot() {
    local name=$1
    shift
    "$workdir/reprod" -addr 127.0.0.1:0 -checkpoint-dir "$ckpt" \
        -replica-id "$name" -lease-ttl 1s "${scenario[@]}" "$@" \
        >"$workdir/$name.log" 2>&1 &
    pids+=($!)
}

# wait_addr NAME — parses the bound address out of a replica's startup
# log, retrying while the daemon boots.
wait_addr() {
    local name=$1 addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's|.*serving on http://\([0-9.:]*\).*|\1|p' "$workdir/$name.log" | head -n1)
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        sleep 0.1
    done
    echo "replica $name never bound; log:" >&2
    cat "$workdir/$name.log" >&2
    return 1
}

echo "== booting 3 replicas (shared checkpoint dir, r2 chaos-armed) =="
boot r0
a0=$(wait_addr r0)
boot r1
a1=$(wait_addr r1)
boot r2 -chaos-seed 1 -chaos-prob 1
a2=$(wait_addr r2)
echo "replicas: r0=$a0 r1=$a1 r2=$a2"

echo "== healthz names each replica =="
for pair in "r0 $a0" "r1 $a1" "r2 $a2"; do
    set -- $pair
    body=$(curl -fsS "http://$2/healthz")
    case "$body" in
    *"\"replica\":\"$1\""*) ;;
    *)
        echo "replica $1 healthz: $body" >&2
        exit 1
        ;;
    esac
done

echo "== reprobench -strict against the fleet =="
"$workdir/reprobench" -addr "$a0,$a1,$a2" -requests 96 -concurrency 8 -strict

echo "== one build fleet-wide: byte-identical artifact from every replica =="
curl -fsS "http://$a0/v1/artifacts/fig2" >"$workdir/fig2.r0"
curl -fsS "http://$a1/v1/artifacts/fig2" >"$workdir/fig2.r1"
curl -fsS "http://$a2/v1/artifacts/fig2" >"$workdir/fig2.r2"
cmp "$workdir/fig2.r0" "$workdir/fig2.r1"
cmp "$workdir/fig2.r0" "$workdir/fig2.r2"

echo "== graceful drain: SIGTERM every replica, expect exit 0 =="
kill -TERM "${pids[@]}"
code=0
for pid in "${pids[@]}"; do
    if ! wait "$pid"; then
        echo "replica pid $pid exited non-zero" >&2
        code=1
    fi
done
pids=()
if [ "$code" -ne 0 ]; then
    for log in "$workdir"/r*.log; do
        echo "--- $log ---" >&2
        cat "$log" >&2
    done
    exit "$code"
fi

echo "== multi-replica smoke OK =="
