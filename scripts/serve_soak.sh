#!/usr/bin/env bash
# Soak the resident engine over a real unix socket — the transport the
# golden --stdio tests cannot cover. Phases:
#
#   1. mixed request stream (including dataplane-diff against the warm
#      incremental state); typed errors (budget-exceeded, bad request)
#      must stay typed and map to the documented exit codes, and a
#      starved write must leave the warm network as it was
#   2. SIGTERM mid-stream: drain, checkpoint, exit 0
#   3. restart: warm restore; compress response byte-identical to cold
#   4. kill -9: the periodic checkpoint (--checkpoint-every 1) survives
#      and the restart restores every loaded network
#   5. corrupt checkpoint: cold rebuild with a warning, never a crash
#   6. torn checkpoint: truncation at random offsets must yield a clean
#      restore-or-cold start on every offset, never a crash
#   7. kill -9 racing the periodic checkpoint writer: whatever half-file
#      the kill leaves behind, the restart starts cleanly
#   8. certificates: a corrupted certificate is refused with exit 8 and
#      REFUTED details; truncation is refused as unparsable
#   9. serve self-audit: a corrupted warm abstraction is refuted,
#      quarantined with a structured incident, and the next answer comes
#      from a cold rebuild, byte-identical to the honest one
#  10. a directory network follows its edits: a diff whose "to" is its
#      own "network" reads the directory again; a save that leaves a
#      dangling reference is a typed parse-error with line numbers only,
#      and the warm entry stays as it was
#
# Every request must produce exactly one typed JSON response — any
# empty read, connection error, or unexpected exit code fails the soak.
set -u

BIN=${BIN:-_build/default/bin/bonsai_cli.exe}
DIR=$(mktemp -d)
SOCK="$DIR/bonsai.sock"
CKPT="$DIR/warm.ckpt"
SRV=

fail() {
  echo "serve_soak FAIL: $*" >&2
  [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null
  # keep server logs and incident records for the CI artifact upload
  if [ -n "${SOAK_KEEP_DIR:-}" ]; then
    mkdir -p "$SOAK_KEEP_DIR"
    cp -r "$DIR"/. "$SOAK_KEEP_DIR"/ 2>/dev/null
    echo "serve_soak: scratch state kept in $SOAK_KEEP_DIR" >&2
  fi
  exit 1
}
cleanup() {
  [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

start_server() { # logfile extra-args...
  local log=$1
  shift
  # a kill -9 leaves the previous socket file behind; remove it so the
  # readiness probe below sees the new server's bind, not the stale file
  rm -f "$SOCK"
  "$BIN" serve --socket "$SOCK" --checkpoint "$CKPT" "$@" 2>"$log" &
  SRV=$!
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  fail "server never created $SOCK ($(cat "$log"))"
}

req() { # expected-exit-code outfile request-json-line
  local want=$1 out=$2 line=$3
  "$BIN" request --socket "$SOCK" "$line" >"$out"
  local code=$?
  [ "$code" -eq "$want" ] ||
    fail "request $line exited $code, want $want ($(cat "$out"))"
  grep -q '"ok":' "$out" ||
    fail "request $line got a non-typed response: $(cat "$out")"
}

echo "== phase 1: mixed stream =="
start_server "$DIR/s1.log" --checkpoint-every 1 --max-inflight 8
req 0 "$DIR/r.json" '{"op":"health"}'
req 0 "$DIR/r.json" '{"op":"load","network":"ring:6"}'
req 0 "$DIR/cold.json" '{"op":"compress","network":"ring:6"}'
req 0 "$DIR/r.json" '{"op":"compress","network":"ring:6","ec":"10.0.1.0/24"}'
req 0 "$DIR/r.json" '{"op":"lint","network":"ring:6"}'
req 0 "$DIR/r.json" '{"op":"flow","network":"ring:6"}'
req 0 "$DIR/r.json" '{"op":"diff","network":"ring:6","to":"ring:6"}'
# dataplane-diff against the warm state: identical specs reuse every
# class; a topology change reports FIB-level changes; a starved request
# fails typed without poisoning the server
req 0 "$DIR/dpd.json" '{"op":"dataplane-diff","network":"ring:6","to":"ring:6"}'
grep -q '"changed":false' "$DIR/dpd.json" ||
  fail "identical dataplane-diff reported changes: $(cat "$DIR/dpd.json")"
grep -q '"reused":6' "$DIR/dpd.json" ||
  fail "warm dataplane-diff did not reuse all classes: $(cat "$DIR/dpd.json")"
req 0 "$DIR/dpd2.json" '{"op":"dataplane-diff","network":"ring:6","to":"ring:8"}'
grep -q '"changed":true' "$DIR/dpd2.json" ||
  fail "grown-ring dataplane-diff saw no changes: $(cat "$DIR/dpd2.json")"
req 3 "$DIR/r.json" '{"op":"dataplane-diff","network":"mesh:4","to":"ring:6","budget_ticks":1}'
# a starved write is answered, never kept: ring:6 stays warm as it was
req 3 "$DIR/r.json" '{"op":"diff","network":"ring:6","to":"ring:8","budget_ticks":1}'
req 0 "$DIR/kept.json" '{"op":"compress","network":"ring:6"}'
cmp -s "$DIR/cold.json" "$DIR/kept.json" ||
  fail "compress after a starved diff differs from the cold response"
req 0 "$DIR/r.json" '{"op":"stats"}'
# request isolation: a starved request fails typed, the server lives on
req 3 "$DIR/r.json" '{"op":"compress","network":"mesh:4","budget_ticks":1}'
req 124 "$DIR/r.json" '{"op":"frobnicate"}'
req 124 "$DIR/r.json" '{"op":"compress"}' # missing network param
# a key the op does not read is refused, never run without it
req 124 "$DIR/r.json" '{"op":"compress","network":"mesh:4","budget_tick":1}'
req 0 "$DIR/r.json" '{"op":"health"}'

echo "== phase 2: SIGTERM mid-stream =="
(
  for _ in 1 2 3; do
    "$BIN" request --socket "$SOCK" '{"op":"compress","network":"ring:6"}' \
      >/dev/null 2>&1
  done
) &
STREAM=$!
sleep 0.3
kill -TERM "$SRV"
wait "$SRV"
code=$?
[ "$code" -eq 0 ] || fail "SIGTERM exit code $code, want 0 (drained)"
wait "$STREAM" 2>/dev/null
SRV=
[ -f "$CKPT" ] || fail "no checkpoint written on SIGTERM"

echo "== phase 3: restart restores warm state =="
start_server "$DIR/s2.log" --checkpoint-every 1
grep -q "restored" "$DIR/s2.log" ||
  fail "restart did not restore ($(cat "$DIR/s2.log"))"
req 0 "$DIR/stats.json" '{"op":"stats"}'
grep -q '"restored_from_checkpoint":true' "$DIR/stats.json" ||
  fail "stats does not report the restore: $(cat "$DIR/stats.json")"
req 0 "$DIR/warm.json" '{"op":"compress","network":"ring:6"}'
cmp -s "$DIR/cold.json" "$DIR/warm.json" ||
  fail "warm-restored compress differs from the cold response"

echo "== phase 4: kill -9 survives via the periodic checkpoint =="
req 0 "$DIR/r.json" '{"op":"load","network":"ring:8"}'
sleep 0.7 # let the post-response checkpoint land before the kill
kill -9 "$SRV"
wait "$SRV" 2>/dev/null
SRV=
start_server "$DIR/s3.log" --checkpoint-every 1
grep -q "restored" "$DIR/s3.log" ||
  fail "restart after kill -9 did not restore ($(cat "$DIR/s3.log"))"
req 0 "$DIR/warm2.json" '{"op":"compress","network":"ring:6"}'
cmp -s "$DIR/cold.json" "$DIR/warm2.json" ||
  fail "post-kill warm compress differs from the cold response"
req 0 "$DIR/r.json" '{"op":"compress","network":"ring:8"}'
req 0 "$DIR/r.json" '{"op":"shutdown"}'
wait "$SRV"
code=$?
[ "$code" -eq 0 ] || fail "shutdown op exit code $code, want 0"
SRV=

echo "== phase 5: corrupt checkpoint degrades to cold =="
printf 'not a checkpoint\n' >"$CKPT"
start_server "$DIR/s4.log"
grep -q "cold start" "$DIR/s4.log" ||
  fail "corrupt checkpoint not reported ($(cat "$DIR/s4.log"))"
req 0 "$DIR/r.json" '{"op":"health"}'
req 0 "$DIR/cold2.json" '{"op":"compress","network":"ring:6"}'
cmp -s "$DIR/cold.json" "$DIR/cold2.json" ||
  fail "cold rebuild after corruption is not deterministic"
req 0 "$DIR/r.json" '{"op":"shutdown"}'
wait "$SRV"
code=$?
[ "$code" -eq 0 ] || fail "exit after corrupt-checkpoint start was $code"
SRV=

echo "== phase 6: torn checkpoints (random truncation offsets) =="
# regenerate a real checkpoint to tear
start_server "$DIR/s5.log" --checkpoint-every 1
req 0 "$DIR/r.json" '{"op":"load","network":"ring:6"}'
req 0 "$DIR/r.json" '{"op":"compress","network":"ring:6"}'
req 0 "$DIR/r.json" '{"op":"shutdown"}'
wait "$SRV"
SRV=
[ -f "$CKPT" ] || fail "no checkpoint to tear"
cp "$CKPT" "$DIR/good.ckpt"
size=$(wc -c <"$DIR/good.ckpt")
for i in 1 2 3 4; do
  cut=$((RANDOM % size))
  head -c "$cut" "$DIR/good.ckpt" >"$CKPT"
  start_server "$DIR/s6-$i.log"
  grep -Eq "restored|cold start" "$DIR/s6-$i.log" ||
    fail "torn checkpoint (cut=$cut/$size) neither restored nor cold:\
 $(cat "$DIR/s6-$i.log")"
  req 0 "$DIR/torn.json" '{"op":"compress","network":"ring:6"}'
  cmp -s "$DIR/cold.json" "$DIR/torn.json" ||
    fail "answer after torn checkpoint (cut=$cut) differs from cold"
  req 0 "$DIR/r.json" '{"op":"shutdown"}'
  wait "$SRV"
  code=$?
  [ "$code" -eq 0 ] || fail "torn-checkpoint run (cut=$cut) exited $code"
  SRV=
done

echo "== phase 7: kill -9 racing the checkpoint writer =="
for i in 1 2 3; do
  rm -f "$CKPT"
  start_server "$DIR/s7-$i.log" --checkpoint-every 1
  # hammer ops that each trigger a post-response checkpoint write, then
  # kill -9 at an arbitrary point in the stream
  (
    while :; do
      "$BIN" request --socket "$SOCK" '{"op":"load","network":"ring:4"}' \
        >/dev/null 2>&1 || exit 0
      "$BIN" request --socket "$SOCK" '{"op":"load","network":"mesh:4"}' \
        >/dev/null 2>&1 || exit 0
    done
  ) &
  HAMMER=$!
  sleep 0.$((2 + RANDOM % 5))
  kill -9 "$SRV"
  wait "$SRV" 2>/dev/null
  SRV=
  kill "$HAMMER" 2>/dev/null
  wait "$HAMMER" 2>/dev/null
  # whatever state the kill left the checkpoint file in, the restart
  # must come up clean and answer correctly (a missing file — killed
  # before the first atomic write — starts cold with no log line)
  had_ckpt=0
  [ -f "$CKPT" ] && had_ckpt=1
  start_server "$DIR/s7r-$i.log"
  if [ "$had_ckpt" -eq 1 ]; then
    grep -Eq "restored|cold start" "$DIR/s7r-$i.log" ||
      fail "restart after checkpoint race: $(cat "$DIR/s7r-$i.log")"
  fi
  req 0 "$DIR/race.json" '{"op":"compress","network":"ring:6"}'
  cmp -s "$DIR/cold.json" "$DIR/race.json" ||
    fail "answer after checkpoint race $i differs from cold"
  req 0 "$DIR/r.json" '{"op":"shutdown"}'
  wait "$SRV"
  code=$?
  [ "$code" -eq 0 ] || fail "post-race run $i exited $code"
  SRV=
done

echo "== phase 8: corrupted certificate is refused (exit 8) =="
CERT="$DIR/ring6.cert"
"$BIN" compress ring:6 --all --certify --certificate "$CERT" >/dev/null ||
  fail "compress --certify on ring:6 failed"
"$BIN" certify ring:6 "$CERT" >/dev/null ||
  fail "honest certificate did not verify"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$CERT" "$DIR/bad.cert" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))
cls = c["classes"][0]
# move a node between role groups: the checker must refute the partition
for i, g in enumerate(cls["groups"]):
    if i > 0 and len(g) > 1:
        moved = g.pop()
        cls["groups"][0].append(moved)
        break
else:
    sys.exit("no multi-member group to corrupt")
json.dump(c, open(sys.argv[2], "w"))
PY
  "$BIN" certify ring:6 "$DIR/bad.cert" >"$DIR/cert.out" 2>&1
  code=$?
  [ "$code" -eq 8 ] ||
    fail "mutated certificate exited $code, want 8 ($(cat "$DIR/cert.out"))"
  grep -q "REFUTED" "$DIR/cert.out" ||
    fail "mutated certificate refused without details: $(cat "$DIR/cert.out")"
fi
head -c $((RANDOM % 64)) "$CERT" >"$DIR/torn.cert"
"$BIN" certify ring:6 "$DIR/torn.cert" >"$DIR/cert2.out" 2>&1
code=$?
[ "$code" -eq 8 ] || fail "truncated certificate exited $code, want 8"

echo "== phase 9: serve self-audit quarantines a corrupted abstraction =="
rm -f "$CKPT"
export BONSAI_TEST_HOOKS=1
start_server "$DIR/s8.log" --checkpoint-every 1
unset BONSAI_TEST_HOOKS
req 0 "$DIR/cold3.json" '{"op":"compress","network":"ring:6"}'
"$BIN" request --socket "$SOCK" '{"op":"test-corrupt","network":"ring:6"}' \
  >"$DIR/tc.json" ||
  fail "test-corrupt failed: $(cat "$DIR/tc.json")"
# the corruption is caught either by the idle self-audit (if the server
# gets a quiet moment first) or by this explicit audit — both paths end
# in quarantine + incident; only the wrong answer must never escape
"$BIN" request --socket "$SOCK" '{"op":"audit","audit":"full"}' \
  >"$DIR/audit.json" ||
  fail "audit op failed: $(cat "$DIR/audit.json")"
grep -q '"ok":true' "$DIR/audit.json" ||
  fail "audit op not ok: $(cat "$DIR/audit.json")"
req 0 "$DIR/rebuilt.json" '{"op":"compress","network":"ring:6"}'
cmp -s "$DIR/cold3.json" "$DIR/rebuilt.json" ||
  fail "post-quarantine rebuild differs from the honest cold answer"
req 0 "$DIR/stats2.json" '{"op":"stats"}'
grep -q '"incidents":1' "$DIR/stats2.json" ||
  fail "incident not counted in stats: $(cat "$DIR/stats2.json")"
req 0 "$DIR/r.json" '{"op":"shutdown"}'
wait "$SRV"
code=$?
[ "$code" -eq 0 ] || fail "self-audit phase exit code $code"
SRV=
grep -q "certificate-incident" "$DIR/s8.log" ||
  fail "no structured incident in the server log: $(cat "$DIR/s8.log")"

echo "== phase 10: a directory network follows its edits =="
rm -f "$CKPT"
FIX=test/incr
NET="$DIR/net"
mkdir "$NET"
cp "$FIX/watchdir_a.cfg" "$NET/a.cfg"
cp "$FIX/watchdir_b.cfg" "$NET/b.cfg"
start_server "$DIR/s9.log"
SPEC="file:$NET"
DIFF="{\"op\":\"diff\",\"network\":\"$SPEC\",\"to\":\"$SPEC\"}"
req 0 "$DIR/r.json" "{\"op\":\"load\",\"network\":\"$SPEC\"}"
# b.cfg defines r3: delete it and a.cfg's r3 lines
rm "$NET/b.cfg"
grep -v r3 "$FIX/watchdir_a.cfg" >"$NET/a.cfg"
req 0 "$DIR/dir1.json" "$DIFF"
grep -q '"delta_list":\["remove node r3","bgp session r2->r3 removed"\]' \
  "$DIR/dir1.json" || fail "directory diff missed r3's removal: $(cat "$DIR/dir1.json")"
# a save whose a.cfg links r3 again, which no file defines
cp "$FIX/watchdir_a.cfg" "$NET/a.cfg"
req 4 "$DIR/dir2.json" "$DIFF"
grep -q '"class":"parse-error"' "$DIR/dir2.json" &&
  grep -q 'lines 7, 23' "$DIR/dir2.json" ||
  fail "dangling save not a parse-error at lines 7, 23: $(cat "$DIR/dir2.json")"
grep -q 'unknown node' "$DIR/dir2.json" &&
  fail "parse-error quotes the diagnostics: $(cat "$DIR/dir2.json")"
# the fixed save puts b.cfg back: answered from the warm three-router
# entry, it adds r3 (a cold load of both sides would be identical)
cp "$FIX/watchdir_b.cfg" "$NET/b.cfg"
req 0 "$DIR/dir3.json" "$DIFF"
grep -q '"delta_list":\["add node r3"' "$DIR/dir3.json" ||
  fail "fixed save not diffed against the warm entry: $(cat "$DIR/dir3.json")"
req 0 "$DIR/r.json" '{"op":"shutdown"}'
wait "$SRV"
code=$?
[ "$code" -eq 0 ] || fail "directory phase exit code $code"
SRV=

echo "serve_soak PASS"
