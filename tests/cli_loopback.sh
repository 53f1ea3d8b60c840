#!/usr/bin/env bash
# Loopback end to end through the CLI: a real `serve --listen` process fed
# by `drive` over 4 connections, with the published verdict stream checked
# bit-for-bit against the offline pipeline (--model turns on drive's
# parity check; its exit code is the assertion). Tiny scale: 3 stations x
# 4 snapshots, 1 training epoch.
#
# The stream ends with the server's StatsSnapshot JSON as a stats frame;
# drive prints it, and its reports_classified must equal the one in the
# --stats-json file, which is written from the same snapshot. --state-file
# runs the CLI's snapshot wiring: the session snapshot must be on disk
# after the run. `train` must leave the .calib sidecar that avx2_int8
# serving loads.
#
# serve and drive inherit DEEPCSI_SIMD, so the ctest pass under
# DEEPCSI_SIMD=avx2_int8 runs the whole wire path on the quantized
# backend on both sides. generate and train always run on the default
# backend, so every pass serves the same kind of model.
#
# Usage: cli_loopback.sh <deepcsi_cli> <scratch dir>
set -euo pipefail

CLI=$1
DIR=$2
rm -rf "$DIR"
mkdir -p "$DIR"

SERVE_PID=
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null; true' EXIT

env -u DEEPCSI_SIMD "$CLI" generate --out "$DIR" --modules 3 --positions 1 \
  --snapshots 4 --pcap "$DIR/stations.pcap"
env -u DEEPCSI_SIMD "$CLI" train --data "$DIR/deepcsi_corpus.dcst" \
  --out "$DIR/model.bin" --epochs 1
test -s "$DIR/model.bin.calib"

# serve needs fixed ports (--listen 0 is refused); if a pair is taken the
# process exits before writing the port file, and the next pair is tried.
for BASE in 19217 19317 19417 19517; do
  INGEST=$BASE
  PUBLISH=$((BASE + 1))
  rm -f "$DIR/ports"
  "$CLI" serve --model "$DIR/model.bin" \
    --listen "$INGEST" --publish "$PUBLISH" --once 1 \
    --port-file "$DIR/ports" --stats-json "$DIR/stats.json" \
    --state-file "$DIR/sessions.snap" &
  SERVE_PID=$!
  for _ in $(seq 1 150); do
    if [ -s "$DIR/ports" ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then break; fi
    sleep 0.2
  done
  [ -s "$DIR/ports" ] && break
  wait "$SERVE_PID" || true
  SERVE_PID=
done
test -n "$SERVE_PID"
test -s "$DIR/ports"

"$CLI" drive --pcap "$DIR/stations.pcap" --connect "$INGEST" \
  --subscribe "$PUBLISH" --conns 4 --model "$DIR/model.bin" |
  tee "$DIR/drive.log"
wait "$SERVE_PID"
SERVE_PID=

grep -F 'drive: server stats: {"version":1,' "$DIR/drive.log"
FRAME=$(grep -o '"reports_classified":[0-9]*' "$DIR/drive.log")
FILE=$(grep -o '"reports_classified":[0-9]*' "$DIR/stats.json")
echo "stats frame $FRAME, --stats-json $FILE"
test "$FRAME" = "$FILE"
test -s "$DIR/sessions.snap"
echo "cli_loopback: ok"
