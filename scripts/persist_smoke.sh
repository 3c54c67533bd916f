#!/bin/sh
# End-to-end smoke of the versioned storage layer: start pi-serve with
# a data dir, grow the dataset through the rows endpoint and the
# interface through the log endpoint, snapshot, SIGKILL the process,
# restart it on the same data dir, and verify the survivor — same or
# later epoch, identical dataset row counts, a working query through
# the SDK — all without the first process's workload generator state.
# Exits non-zero on any failure.
set -eu

ADDR="${ADDR:-127.0.0.1:8095}"
TOKEN="${TOKEN:-persist-secret}"
BIN="$(mktemp -d)/pi-serve"
DATA_DIR="$(mktemp -d)"
LOG="$(mktemp)"

echo "== build"
go build -o "$BIN" ./cmd/pi-serve

cleanup() {
    [ -n "${PID:-}" ] && kill -9 "$PID" 2>/dev/null || true
    wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

start_server() {
    "$BIN" -addr "$ADDR" -workloads olap -n 80 -rows 500 \
        -token "$TOKEN" -data-dir "$DATA_DIR" >>"$LOG" 2>&1 &
    PID=$!
    i=0
    until curl -sf "http://$ADDR/v1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 120 ]; then
            echo "server never came up; log:" >&2
            cat "$LOG" >&2
            exit 1
        fi
        sleep 0.25
    done
}

# json_field BODY FIELD -> first numeric value of "field":N
json_field() {
    printf '%s' "$1" | sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" | head -n 1
}

ONTIME_ROW='["AA","AA","CAP","NYP","CA","NY",1,1,1,10,12,8,500,1,0,0]'

echo "== first life: start pi-serve -data-dir on $ADDR"
start_server

echo "== grow the dataset (rows endpoint) and the interface (log endpoint)"
body=$(curl -s -X POST "http://$ADDR/v1/interfaces/olap/rows?flush=1" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
    -d "{\"table\":\"ontime\",\"rows\":[$ONTIME_ROW,$ONTIME_ROW]}")
rowcount=$(json_field "$body" rowCount)
[ "$rowcount" = "502" ] || { echo "append ack rowCount=$rowcount, want 502: $body" >&2; exit 1; }

curl -s -X POST "http://$ADDR/v1/interfaces/olap/log?flush=1" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: text/plain' \
    --data-binary 'SELECT carrier, avg(delay) FROM ontime WHERE month = 7 GROUP BY carrier;' >/dev/null

epoch_before=$(json_field "$(curl -s "http://$ADDR/v1/interfaces/olap/epoch")" epoch)
[ -n "$epoch_before" ] && [ "$epoch_before" -ge 2 ] || {
    echo "epoch before kill is $epoch_before, expected >= 2" >&2; exit 1; }

echo "== snapshot to $DATA_DIR"
body=$(curl -s -X POST "http://$ADDR/v1/snapshot" -H "Authorization: Bearer $TOKEN")
case "$body" in
*'"id":"olap"'*) ;;
*) echo "snapshot result missing olap: $body" >&2; exit 1 ;;
esac
ls "$DATA_DIR"/olap.*.snap >/dev/null 2>&1 || { echo "no snapshot file in $DATA_DIR" >&2; exit 1; }

echo "== SIGKILL"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== second life: restart on the same data dir"
start_server
grep -q "restored olap" "$LOG" || { echo "server did not restore olap; log:" >&2; cat "$LOG" >&2; exit 1; }

echo "== verify: epoch is same-or-later"
epoch_after=$(json_field "$(curl -s "http://$ADDR/v1/interfaces/olap/epoch")" epoch)
[ -n "$epoch_after" ] && [ "$epoch_after" -ge "$epoch_before" ] || {
    echo "epoch went backwards: $epoch_before -> $epoch_after" >&2; exit 1; }

echo "== verify: dataset row counts survived (502 + 1 new = 503)"
body=$(curl -s -X POST "http://$ADDR/v1/interfaces/olap/rows?flush=1" \
    -H "Authorization: Bearer $TOKEN" -H 'Content-Type: application/json' \
    -d "{\"table\":\"ontime\",\"rows\":[$ONTIME_ROW]}")
rowcount=$(json_field "$body" rowCount)
[ "$rowcount" = "503" ] || {
    echo "post-restore rowCount=$rowcount, want 503 (the 2 pre-kill rows must survive): $body" >&2
    exit 1
}

echo "== verify: queries work (SDK round-trip incl. auth)"
"$BIN" -check -addr "$ADDR" -token "$TOKEN"

body=$(curl -s "http://$ADDR/v1/healthz")
case "$body" in
*'"persistence":true'*) ;;
*) echo "healthz does not report persistence: $body" >&2; exit 1 ;;
esac

echo "== graceful shutdown persists a final snapshot"
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 60 ]; then
        echo "server did not shut down on SIGTERM" >&2
        exit 1
    fi
    sleep 0.25
done
PID=""
grep -q "final snapshot" "$LOG" || { echo "no final snapshot on shutdown; log:" >&2; cat "$LOG" >&2; exit 1; }

echo "persist-smoke: ok"
