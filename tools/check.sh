#!/usr/bin/env bash
# Tier-1 verification: build, unit tests, and a CLI smoke run that exercises
# the telemetry pipeline end to end (fuzz --telemetry, then stats --strict).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== CLI smoke: fuzz 200 tests with telemetry =="
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
dune exec bin/once4all_cli.exe -- fuzz --budget 200 --telemetry "$out/run.jsonl" \
  > "$out/fuzz.log"
grep -q "tests: 200" "$out/fuzz.log" || {
  echo "FAIL: fuzz did not report 200 tests"; cat "$out/fuzz.log"; exit 1; }

echo "== CLI smoke: stats --strict validates the JSONL log =="
dune exec bin/once4all_cli.exe -- stats --strict "$out/run.jsonl"

echo "== Parallel determinism: --jobs 2 reproduces --jobs 1 =="
dune exec bin/once4all_cli.exe -- fuzz --budget 400 --shard-size 100 --jobs 1 \
  > "$out/jobs1.log"
dune exec bin/once4all_cli.exe -- fuzz --budget 400 --shard-size 100 --jobs 2 \
  > "$out/jobs2.log"
diff "$out/jobs1.log" "$out/jobs2.log" || {
  echo "FAIL: --jobs 2 report differs from --jobs 1"; exit 1; }

echo "== Parallel telemetry: stats --strict on a --jobs 2 log =="
dune exec bin/once4all_cli.exe -- fuzz --budget 400 --shard-size 100 --jobs 2 \
  --telemetry "$out/jobs2.jsonl" > /dev/null
dune exec bin/once4all_cli.exe -- stats --strict "$out/jobs2.jsonl"

echo "== Repro bundles: jobs-invariant trace tree, repro.sh replays =="
dune exec bin/once4all_cli.exe -- fuzz --budget 400 --shard-size 100 --jobs 1 \
  --trace-dir "$out/t1" > /dev/null
dune exec bin/once4all_cli.exe -- fuzz --budget 400 --shard-size 100 --jobs 2 \
  --trace-dir "$out/t2" > /dev/null
diff -r "$out/t1" "$out/t2" || {
  echo "FAIL: --jobs 2 trace tree differs from --jobs 1"; exit 1; }
dune exec bin/once4all_cli.exe -- triage "$out/t1" > "$out/triage1.log"
dune exec bin/once4all_cli.exe -- triage "$out/t2" > "$out/triage2.log"
diff "$out/triage1.log" "$out/triage2.log" || {
  echo "FAIL: triage clusters differ between --jobs 1 and --jobs 2"; exit 1; }
# head closing the pipe early can SIGPIPE sort/find under pipefail
repro="$(find "$out/t1" -name repro.sh | sort | head -n 1)" || true
[ -n "$repro" ] || { echo "FAIL: campaign wrote no repro bundles"; exit 1; }
ONCE4ALL="$PWD/_build/default/bin/once4all_cli.exe" "$repro" > "$out/repro.log" || {
  echo "FAIL: $repro exited nonzero"; cat "$out/repro.log"; exit 1; }
grep -q "expected signature reproduced" "$out/repro.log" || {
  echo "FAIL: repro.sh did not reproduce its finding"; cat "$out/repro.log"; exit 1; }

echo "== Bundle replay: each bundle's searches, compiled = tree-walking evaluator =="
# outcome, model, fuel and every coverage count under both solvers' rules,
# order and bounds at the campaign's 60,000 steps (the reference evaluator
# sorts its collections with the normalizers kept in
# test/reference/normalize.ml, not lib's); every spec's indexed
# trigger and rarity gate = the per-predicate walks; the oracle given the
# parse = the oracle given the text; the lexed S-expressions, the printed
# parse, the sort check and both trunk engines' parse_check = the front end
# in test/reference/frontend.ml; names the bundle that differs
dune exec test/replay/replay_bundles.exe -- "$out/t1"

echo "== Substrate: pure engines find nothing =="
# one 2,000-tick shard of the default campaign per seed on bug-free solvers;
# any finding is a false positive of the substrate (~3 s per seed)
for seed in 7 11; do
  dune exec test/null/null_campaign.exe -- "$seed" 2000 || {
    echo "FAIL: bug-free solvers reported findings at seed $seed"; exit 1; }
done

echo "== Checkpoint/resume: stop after 2 shards, resume, same report =="
dune exec bin/once4all_cli.exe -- fuzz --budget 400 --shard-size 100 --jobs 1 \
  --checkpoint "$out/cp.json" --stop-after 2 > /dev/null
dune exec bin/once4all_cli.exe -- resume --checkpoint "$out/cp.json" --jobs 2 \
  > "$out/resumed.log"
grep -v '^resumed ' "$out/resumed.log" | diff "$out/jobs1.log" - || {
  echo "FAIL: resumed report differs from the uninterrupted run"; exit 1; }

echo "== Checkpoint/resume: a finished checkpoint resumes without running a shard =="
# cp.json now holds all 4 shards: resuming it again runs nothing, reports
# the same campaign, and leaves the file as it was
cp "$out/cp.json" "$out/cp_finished.json"
dune exec bin/once4all_cli.exe -- resume --checkpoint "$out/cp.json" \
  > "$out/reresumed.log"
grep -v '^resumed ' "$out/reresumed.log" | diff "$out/jobs1.log" - || {
  echo "FAIL: a finished checkpoint resumes to a different report"; exit 1; }
grep -q '^resumed 4 completed shards ' "$out/reresumed.log" || {
  echo "FAIL: the finished checkpoint did not resume all 4 shards"
  cat "$out/reresumed.log"; exit 1; }
cmp "$out/cp_finished.json" "$out/cp.json" || {
  echo "FAIL: resuming a finished checkpoint rewrote it"; exit 1; }

echo "== Format fixture: a checkpoint from an earlier build resumes identically =="
# test/fixtures/checkpoint_v4.json was written by an earlier build of this
# repository (see test/fixtures/README.md): resuming a copy must land on the
# same report as the uninterrupted campaign it was cut from
cp test/fixtures/checkpoint_v4.json "$out/fixture_cp.json"
dune exec bin/once4all_cli.exe -- resume --checkpoint "$out/fixture_cp.json" \
  > "$out/fixture_resumed.log"
dune exec bin/once4all_cli.exe -- fuzz --budget 40 --shard-size 10 --seed 5 \
  > "$out/fixture_full.log"
grep -v '^resumed ' "$out/fixture_resumed.log" | diff "$out/fixture_full.log" - || {
  echo "FAIL: the fixture checkpoint resumes to a different report than an"
  echo "uninterrupted run; a commit that declares a semantic change must"
  echo "regenerate test/fixtures/ (see test/fixtures/README.md)"; exit 1; }

echo "== Format fixture: a v5 journal resumes identically =="
# test/fixtures/checkpoint_v5.json is the same cut as checkpoint_v4.json,
# left uncompacted: a header and one entry per merged shard
cp test/fixtures/checkpoint_v5.json "$out/fixture_v5_cp.json"
dune exec bin/once4all_cli.exe -- resume --checkpoint "$out/fixture_v5_cp.json" \
  > "$out/fixture_v5_resumed.log"
grep -v '^resumed ' "$out/fixture_v5_resumed.log" | diff "$out/fixture_full.log" - || {
  echo "FAIL: the v5 fixture journal resumes to a different report than an"
  echo "uninterrupted run"; exit 1; }

echo "== Checkpoint journal: SIGKILL mid-campaign resumes identically =="
dune exec bin/once4all_cli.exe -- fuzz --budget 400 --shard-size 10 --jobs 2 \
  > "$out/j_full.log"
_build/default/bin/once4all_cli.exe fuzz --budget 400 --shard-size 10 --jobs 2 \
  --checkpoint "$out/jcp.json" > /dev/null &
jpid=$!
# a header and at least four appended entries, then no chance to compact
while kill -0 "$jpid" 2>/dev/null \
  && [ "$(cat "$out/jcp.json" 2>/dev/null | wc -l)" -lt 5 ]; do
  sleep 0.02
done
kill -KILL "$jpid" 2>/dev/null || true
wait "$jpid" 2>/dev/null || true
[ "$(wc -l < "$out/jcp.json")" -ge 5 ] || {
  echo "FAIL: the campaign finished before SIGKILL landed on its journal"; exit 1; }
dune exec bin/once4all_cli.exe -- resume --checkpoint "$out/jcp.json" --jobs 2 \
  > "$out/j_resumed.log"
grep -v '^resumed ' "$out/j_resumed.log" | diff "$out/j_full.log" - || {
  echo "FAIL: resume of a SIGKILLed journal differs from the uninterrupted run"
  exit 1; }

echo "== Chaos determinism: --chaos all --jobs 4 reproduces --jobs 1 =="
dune exec bin/once4all_cli.exe -- fuzz --budget 400 --shard-size 100 --jobs 1 \
  --chaos all --chaos-seed 5 --trace-dir "$out/c1" > "$out/chaos1.log"
dune exec bin/once4all_cli.exe -- fuzz --budget 400 --shard-size 100 --jobs 4 \
  --chaos all --chaos-seed 5 --trace-dir "$out/c4" > "$out/chaos4.log"
# the report is identical up to the trace-dir path it names
diff <(grep -v '^wrote ' "$out/chaos1.log") <(grep -v '^wrote ' "$out/chaos4.log") || {
  echo "FAIL: chaos --jobs 4 report differs from --jobs 1"; exit 1; }
diff -r "$out/c1" "$out/c4" || {
  echo "FAIL: chaos --jobs 4 trace tree differs from --jobs 1"; exit 1; }

echo "== Chaos kill/resume: resumed chaos run matches uninterrupted =="
dune exec bin/once4all_cli.exe -- fuzz --budget 400 --shard-size 100 --jobs 1 \
  --chaos all --chaos-seed 5 --checkpoint "$out/ccp.json" --stop-after 2 \
  > /dev/null
dune exec bin/once4all_cli.exe -- resume --checkpoint "$out/ccp.json" --jobs 2 \
  > "$out/cresumed.log"
grep -v '^resumed ' "$out/cresumed.log" | diff <(grep -v '^wrote ' "$out/chaos1.log") - || {
  echo "FAIL: resumed chaos report differs from the uninterrupted chaos run"; exit 1; }

echo "== Chaos quarantine: rate 1.0 quarantines every shard, exits 0 =="
dune exec bin/once4all_cli.exe -- fuzz --budget 200 --shard-size 100 --jobs 2 \
  --chaos workers --chaos-rate 1.0 --chaos-seed 3 --telemetry "$out/quar.jsonl" \
  > "$out/quar.log" || {
  echo "FAIL: quarantined campaign exited nonzero"; cat "$out/quar.log"; exit 1; }
grep -q "quarantined: 2 shards" "$out/quar.log" || {
  echo "FAIL: quarantine missing from the campaign report"; cat "$out/quar.log"; exit 1; }
dune exec bin/once4all_cli.exe -- stats "$out/quar.jsonl" > "$out/quarstats.log"
grep -q "quarantined shards:" "$out/quarstats.log" || {
  echo "FAIL: quarantine missing from stats"; cat "$out/quarstats.log"; exit 1; }

echo "== Corrupt checkpoint: resume fails with a byte-offset diagnostic =="
head -c "$(( $(wc -c < "$out/cp.json") / 2 ))" "$out/cp.json" > "$out/bad.json"
if dune exec bin/once4all_cli.exe -- resume --checkpoint "$out/bad.json" \
     > "$out/bad.log" 2>&1; then
  echo "FAIL: resume on a truncated checkpoint exited 0"; exit 1
fi
grep -q "byte offset" "$out/bad.log" || {
  echo "FAIL: diagnostic does not name the byte offset"; cat "$out/bad.log"; exit 1; }

cli="$PWD/_build/default/bin/once4all_cli.exe"

echo "== Graceful shutdown: SIGTERM drains, checkpoints, resumes identically =="
"$cli" fuzz --budget 2000 --shard-size 100 --jobs 2 \
  --checkpoint "$out/gfull_cp.json" > "$out/g_full.log"
"$cli" fuzz --budget 2000 --shard-size 100 --jobs 2 \
  --checkpoint "$out/gcp.json" > "$out/g_stop.log" &
gpid=$!
# signal once the journal holds a merged shard (a header and one entry): a
# fixed one-second sleep outlives the whole campaign on a fast build
while kill -0 "$gpid" 2>/dev/null \
  && [ "$(cat "$out/gcp.json" 2>/dev/null | wc -l)" -lt 2 ]; do
  sleep 0.02
done
kill -TERM "$gpid" 2>/dev/null || true
wait "$gpid" || {
  echo "FAIL: SIGTERM-stopped campaign exited nonzero"; cat "$out/g_stop.log"; exit 1; }
grep -q "stopped gracefully" "$out/g_stop.log" || {
  echo "FAIL: campaign finished before the signal landed (or drain message missing)"
  cat "$out/g_stop.log"; exit 1; }
"$cli" resume --checkpoint "$out/gcp.json" --jobs 2 \
  > "$out/g_resumed.log"
grep -v '^resumed ' "$out/g_resumed.log" | diff "$out/g_full.log" - || {
  echo "FAIL: resume after SIGTERM differs from the uninterrupted run"; exit 1; }
# the resumed checkpoint's analytics series must equal the uninterrupted one
"$cli" analyze "$out/gfull_cp.json" --csv "$out/gfull.csv" > /dev/null
"$cli" analyze "$out/gcp.json" --csv "$out/gresumed.csv" > /dev/null
diff "$out/gfull.csv" "$out/gresumed.csv" || {
  echo "FAIL: analytics series after SIGTERM+resume differs from the \
uninterrupted run"; exit 1; }

echo "== Sick solver: breakers trip identically at --jobs 1 and --jobs 4 =="
sick_flags="--chaos solver_hang --chaos-rate 1.0 --chaos-seed 7 \
  --breaker-window 4 --breaker-threshold 2"
"$cli" fuzz --budget 400 --shard-size 100 --jobs 1 $sick_flags \
  --telemetry "$out/sick.jsonl" > "$out/sick1.log"
"$cli" fuzz --budget 400 --shard-size 100 --jobs 4 $sick_flags \
  --telemetry "$out/sick4.jsonl" > "$out/sick4.log"
# the reports are identical up to the telemetry path each names
diff <(grep -v '^telemetry written' "$out/sick1.log") \
     <(grep -v '^telemetry written' "$out/sick4.log") || {
  echo "FAIL: sick-solver --jobs 4 report differs from --jobs 1"; exit 1; }
awk '/^breakers:/ { if ($3 > 0 && $5 > 0) found = 1 }
     END { exit(found ? 0 : 1) }' "$out/sick1.log" || {
  echo "FAIL: expected at least one breaker trip and one re-close"
  cat "$out/sick1.log"; exit 1; }
dune exec bin/once4all_cli.exe -- stats --strict "$out/sick.jsonl" > /dev/null

echo "== Degraded oracle: open breakers never yield a soundness finding =="
# single-pattern greps: `grep | grep -q` would SIGPIPE under pipefail
grep -q '"event":"health.breaker".*"to":"open"' "$out/sick.jsonl" || {
  echo "FAIL: no breaker-open events in the sick-solver telemetry"; exit 1; }
grep -q '"event":"health.breaker".*"to":"closed"' "$out/sick.jsonl" || {
  echo "FAIL: no half-open probe ever re-closed a breaker"; exit 1; }
if grep -q '"event":"oracle.finding".*"kind":"soundness".*"mode":"degraded' \
     "$out/sick.jsonl"; then
  echo "FAIL: a degraded-mode (single-solver) soundness finding was reported"
  exit 1
fi

echo "== HUD purity: --progress changes no report, telemetry or checkpoint =="
"$cli" fuzz --budget 400 --shard-size 100 --jobs 2 \
  --telemetry "$out/hud_off.jsonl" --checkpoint "$out/hud_off_cp.json" \
  > "$out/hud_off.log"
"$cli" fuzz --budget 400 --shard-size 100 --jobs 2 --progress \
  --telemetry "$out/hud_on.jsonl" --checkpoint "$out/hud_on_cp.json" \
  > "$out/hud_on.log" 2> /dev/null
# the reports are identical up to the telemetry path each names
diff <(grep -v '^telemetry written' "$out/hud_off.log") \
     <(grep -v '^telemetry written' "$out/hud_on.log") || {
  echo "FAIL: --progress changed the campaign report"; exit 1; }
diff <(grep -o '"event":"[^"]*"' "$out/hud_off.jsonl" | sort | uniq -c) \
     <(grep -o '"event":"[^"]*"' "$out/hud_on.jsonl" | sort | uniq -c) || {
  echo "FAIL: --progress changed the telemetry event stream"; exit 1; }
# what the run persists: the checkpoint bytes and the analytics read back
cmp "$out/hud_off_cp.json" "$out/hud_on_cp.json" || {
  echo "FAIL: --progress changed the checkpoint"; exit 1; }
"$cli" analyze "$out/hud_off_cp.json" --json "$out/hud_off_analyze.json" \
  > /dev/null
"$cli" analyze "$out/hud_on_cp.json" --json "$out/hud_on_analyze.json" \
  > /dev/null
diff "$out/hud_off_analyze.json" "$out/hud_on_analyze.json" || {
  echo "FAIL: --progress changed analyze --json"; exit 1; }

echo "== Campaign server: concurrent jobs byte-identical to standalone =="
ssock="$out/srv.sock"
sstate="$out/srv-state"
"$cli" serve --socket "$ssock" --state-dir "$sstate" --pool 2 \
  > "$out/serve1.log" 2>&1 &
spid=$!
for _ in $(seq 1 100); do [ -S "$ssock" ] && break; sleep 0.1; done
"$cli" submit --socket "$ssock" --name s-alpha --seed 7 --budget 400 \
  --shard-size 100 --trace > /dev/null
"$cli" submit --socket "$ssock" --name s-beta --seed 11 --budget 400 \
  --shard-size 100 --trace > /dev/null
# watch exits when the job reaches a terminal state (late attach replays the
# backlog, so watching an already-finished job returns immediately)
"$cli" watch --socket "$ssock" s-alpha > /dev/null
"$cli" watch --socket "$ssock" s-beta > /dev/null
# live metrics snapshot of the finished job, before the server goes away
"$cli" metrics --socket "$ssock" s-alpha > "$out/sa_metrics.json"
"$cli" metrics --socket "$ssock" s-alpha --prom > "$out/sa_metrics.prom"
grep -q '^once4all_tests_total ' "$out/sa_metrics.prom" || {
  echo "FAIL: Prometheus exposition lacks once4all_tests_total"; exit 1; }
"$cli" shutdown --socket "$ssock" > /dev/null
wait "$spid" || { echo "FAIL: server exited nonzero"; cat "$out/serve1.log"; exit 1; }
"$cli" fuzz --seed 7 --budget 400 --shard-size 100 --jobs 2 \
  --trace-dir "$out/sa_trace" --checkpoint "$out/sa_cp.json" > "$out/sa.log"
"$cli" fuzz --seed 11 --budget 400 --shard-size 100 --jobs 2 \
  --trace-dir "$out/sb_trace" > "$out/sb.log"
# the reports are identical up to the trace-dir path each names
for pair in "s-alpha sa" "s-beta sb"; do
  job="${pair% *}"; std="${pair#* }"
  diff <(grep -v '^wrote ' "$sstate/$job/report.txt") \
       <(grep -v '^wrote ' "$out/$std.log") || {
    echo "FAIL: server report for $job differs from standalone fuzz"; exit 1; }
  diff -r "$sstate/$job/trace" "$out/${std}_trace" || {
    echo "FAIL: server trace tree for $job differs from standalone fuzz"; exit 1; }
done
# the live metrics snapshot is the same canonical JSON analyze reads from the
# equivalent standalone campaign's checkpoint
"$cli" analyze "$out/sa_cp.json" --json "$out/sa_analyze.json" > /dev/null
diff "$out/sa_metrics.json" "$out/sa_analyze.json" || {
  echo "FAIL: server metrics snapshot differs from analyze --json on the \
standalone checkpoint"; exit 1; }

echo "== Campaign server: SIGTERM drains both jobs, resume lands identically =="
"$cli" serve --socket "$ssock" --state-dir "$sstate" --pool 2 \
  > "$out/serve2.log" 2>&1 &
spid=$!
for _ in $(seq 1 100); do [ -S "$ssock" ] && break; sleep 0.1; done
"$cli" submit --socket "$ssock" --name s-gamma --seed 5 --budget 2000 \
  --shard-size 100 > /dev/null
"$cli" submit --socket "$ssock" --name s-delta --seed 9 --budget 2000 \
  --shard-size 100 > /dev/null
# wait until BOTH jobs have merged at least one shard, so each checkpoint
# resumes > 0 shards and the resumed-provenance line below is guaranteed
for _ in $(seq 1 300); do
  done_counts="$("$cli" jobs --socket "$ssock" \
    | awk '$1 ~ /^s-(gamma|delta)$/ { split($3, a, "/"); print a[1] }')"
  [ "$(echo "$done_counts" | sort -n | head -1)" -ge 1 ] 2>/dev/null && break
  sleep 0.2
done
kill -TERM "$spid" 2>/dev/null || true
wait "$spid" || { echo "FAIL: SIGTERM drain exited nonzero"; cat "$out/serve2.log"; exit 1; }
for job in s-gamma s-delta; do
  [ "$(cat "$sstate/$job/status")" = "paused" ] || {
    echo "FAIL: $job not paused after SIGTERM (campaign finished before the \
signal landed?)"; cat "$sstate/$job/status"; exit 1; }
  "$cli" checkpoint info "$sstate/$job/checkpoint.json" > /dev/null || {
    echo "FAIL: $job checkpoint unreadable after drain"; exit 1; }
done
# keep s-gamma's drained checkpoint before resume-job rewrites it: the CLI
# must resume it too
cp "$sstate/s-gamma/checkpoint.json" "$out/sg_cp.json"
"$cli" serve --socket "$ssock" --state-dir "$sstate" --pool 2 \
  > "$out/serve3.log" 2>&1 &
spid=$!
for _ in $(seq 1 100); do [ -S "$ssock" ] && break; sleep 0.1; done
"$cli" resume-job --socket "$ssock" s-gamma > /dev/null
"$cli" resume-job --socket "$ssock" s-delta > /dev/null
"$cli" watch --socket "$ssock" s-gamma > /dev/null
"$cli" watch --socket "$ssock" s-delta > /dev/null
"$cli" shutdown --socket "$ssock" > /dev/null
wait "$spid" || { echo "FAIL: server exited nonzero after resume"; exit 1; }
"$cli" fuzz --seed 5 --budget 2000 --shard-size 100 --jobs 2 > "$out/sg.log"
"$cli" fuzz --seed 9 --budget 2000 --shard-size 100 --jobs 2 > "$out/sd.log"
"$cli" resume --checkpoint "$out/sg_cp.json" --jobs 2 > "$out/sg_cli.log"
grep -q '^resumed ' "$out/sg_cli.log" || {
  echo "FAIL: resume of s-gamma's served checkpoint resumed no shards"; exit 1; }
diff <(grep -v '^resumed ' "$out/sg_cli.log") "$out/sg.log" || {
  echo "FAIL: once4all resume of a served job's checkpoint differs from the \
uninterrupted standalone run"; exit 1; }
# resumed reports carry a "resumed N completed shards" provenance line
for pair in "s-gamma sg" "s-delta sd"; do
  job="${pair% *}"; std="${pair#* }"
  grep -q '^resumed ' "$sstate/$job/report.txt" || {
    echo "FAIL: $job report lacks the resumed-shards line"; exit 1; }
  diff <(grep -v '^resumed ' "$sstate/$job/report.txt") "$out/$std.log" || {
    echo "FAIL: resumed server report for $job differs from uninterrupted \
standalone run"; exit 1; }
done

echo "== Distributed fabric: TCP serve + remote worker equals standalone =="
dstate="$out/dist-state"
dsock="$out/dist.sock"
# --pool 0: the coordinator runs nothing locally, every shard must travel
# the wire to the remote worker pool and back
"$cli" serve --socket "$dsock" --state-dir "$dstate" --pool 0 \
  --tcp 127.0.0.1:0 > "$out/dserve.log" 2>&1 &
dpid=$!
for _ in $(seq 1 100); do [ -s "$dstate/tcp.port" ] && break; sleep 0.1; done
daddr="127.0.0.1:$(cat "$dstate/tcp.port")"
"$cli" worker --connect "$daddr" --slots 2 --connect-timeout 10 \
  > "$out/dworker.log" 2>&1 &
wpid=$!
"$cli" submit --connect "$daddr" --connect-timeout 10 --name d-alpha --seed 7 \
  --budget 400 --shard-size 100 --trace > /dev/null
"$cli" watch --connect "$daddr" d-alpha > /dev/null
"$cli" metrics --connect "$daddr" d-alpha > "$out/da_metrics.json"
# report, repro bundles, and analytics: the same bytes standalone fuzz
# produced above (reports differ only in the trace-dir path each names)
diff <(grep -v '^wrote ' "$dstate/d-alpha/report.txt") \
     <(grep -v '^wrote ' "$out/sa.log") || {
  echo "FAIL: TCP-fabric report differs from standalone fuzz"; exit 1; }
diff -r "$dstate/d-alpha/trace" "$out/sa_trace" || {
  echo "FAIL: TCP-fabric trace tree differs from standalone fuzz"; exit 1; }
diff "$out/da_metrics.json" "$out/sa_analyze.json" || {
  echo "FAIL: TCP-fabric metrics differ from analyze --json on the \
standalone checkpoint"; exit 1; }

echo "== Distributed fabric: worker SIGKILLed mid-lease, report unchanged =="
"$cli" worker --connect "$daddr" --slots 1 --connect-timeout 10 \
  > "$out/dvictim.log" 2>&1 &
vpid=$!
"$cli" submit --connect "$daddr" --name d-beta --seed 5 --budget 2000 \
  --shard-size 100 > /dev/null
sleep 1
kill -KILL "$vpid" 2>/dev/null || true
wait "$vpid" || true
"$cli" watch --connect "$daddr" d-beta > /dev/null
diff "$dstate/d-beta/report.txt" "$out/sg.log" || {
  echo "FAIL: report after SIGKILLed worker differs from standalone fuzz"; exit 1; }

echo "== Distributed fabric: --chaos net over TCP equals standalone chaos =="
"$cli" fuzz --seed 7 --budget 400 --shard-size 100 --jobs 1 \
  --chaos net --chaos-seed 2 > "$out/net1.log"
"$cli" fuzz --seed 7 --budget 400 --shard-size 100 --jobs 4 \
  --chaos net --chaos-seed 2 > "$out/net4.log"
diff "$out/net1.log" "$out/net4.log" || {
  echo "FAIL: --chaos net --jobs 4 report differs from --jobs 1"; exit 1; }
"$cli" submit --connect "$daddr" --name d-chaos --seed 7 --budget 400 \
  --shard-size 100 --chaos net --chaos-seed 2 > /dev/null
"$cli" watch --connect "$daddr" d-chaos > /dev/null
diff "$dstate/d-chaos/report.txt" "$out/net1.log" || {
  echo "FAIL: --chaos net over the TCP fabric differs from standalone"; exit 1; }
"$cli" shutdown --connect "$daddr" > /dev/null
wait "$wpid" || { echo "FAIL: remote worker exited nonzero on drain"; exit 1; }
wait "$dpid" || { echo "FAIL: coordinator exited nonzero"; cat "$out/dserve.log"; exit 1; }

echo "== Distributed fabric: shutdown with a chaos-duplicated lease out, worker exits 0 =="
# --chaos net duplicates leases, so shutdown can reach a worker that is still
# running a duplicate: after Drain the lost connection is the expected end,
# and writing the stale result must not kill the worker (SIGPIPE, exit 141)
for k in 2 3 4; do
  kstate="$out/drain-$k"
  "$cli" serve --socket "$out/drain-$k.sock" --state-dir "$kstate" --pool 0 \
    --tcp 127.0.0.1:0 > "$out/kserve.log" 2>&1 &
  kpid=$!
  for _ in $(seq 1 100); do [ -s "$kstate/tcp.port" ] && break; sleep 0.1; done
  kaddr="127.0.0.1:$(cat "$kstate/tcp.port")"
  "$cli" worker --connect "$kaddr" --slots 2 --connect-timeout 10 \
    > "$out/kworker.log" 2>&1 &
  kwpid=$!
  "$cli" submit --connect "$kaddr" --connect-timeout 10 --name k-drain --seed 7 \
    --budget 400 --shard-size 100 --chaos net --chaos-seed "$k" > /dev/null
  "$cli" watch --connect "$kaddr" k-drain > /dev/null
  "$cli" shutdown --connect "$kaddr" > /dev/null
  wait "$kwpid" || {
    echo "FAIL: remote worker exited nonzero on drain (chaos seed $k)"
    cat "$out/kworker.log"; exit 1; }
  wait "$kpid" || {
    echo "FAIL: coordinator exited nonzero (chaos seed $k)"; cat "$out/kserve.log"
    exit 1; }
done

echo "== Distributed fabric: more jobs than slots on one remote worker =="
# three jobs at once on one --slots 1 worker: the scheduler interleaves
# their shards, so the worker holds three live jobs' envs behind one slot,
# and every report must still be standalone fuzz's
mstate="$out/many-state"
"$cli" serve --socket "$out/many.sock" --state-dir "$mstate" --pool 0 \
  --tcp 127.0.0.1:0 > "$out/mserve.log" 2>&1 &
mpid=$!
for _ in $(seq 1 100); do [ -s "$mstate/tcp.port" ] && break; sleep 0.1; done
maddr="127.0.0.1:$(cat "$mstate/tcp.port")"
"$cli" worker --connect "$maddr" --slots 1 --connect-timeout 10 \
  > "$out/mworker.log" 2>&1 &
mwpid=$!
for s in 3 5 7; do
  "$cli" submit --connect "$maddr" --connect-timeout 10 --name "m-$s" --seed "$s" \
    --budget 300 --shard-size 50 > /dev/null
done
for s in 3 5 7; do
  "$cli" watch --connect "$maddr" "m-$s" > /dev/null
  "$cli" fuzz --seed "$s" --budget 300 --shard-size 50 > "$out/m-$s.log"
  diff "$mstate/m-$s/report.txt" "$out/m-$s.log" || {
    echo "FAIL: job m-$s beside two others on a one-slot worker differs from standalone fuzz"
    exit 1; }
done
"$cli" shutdown --connect "$maddr" > /dev/null
wait "$mwpid" || {
  echo "FAIL: one-slot worker exited nonzero on drain"; cat "$out/mworker.log"; exit 1; }
wait "$mpid" || { echo "FAIL: coordinator exited nonzero"; cat "$out/mserve.log"; exit 1; }

echo "== Checkpoint info: typed diagnostics, exit 2 on unreadable files =="
if "$cli" checkpoint info "$out/does-not-exist.json" 2> "$out/ci.log"; then
  echo "FAIL: checkpoint info on a missing file exited 0"; exit 1
fi
if "$cli" stats "$out/does-not-exist.jsonl" 2>> "$out/ci.log"; then
  echo "FAIL: stats on a missing file exited 0"; exit 1
fi
grep -q "does-not-exist" "$out/ci.log" || {
  echo "FAIL: diagnostics do not name the offending path"; cat "$out/ci.log"; exit 1; }
# out-of-range option values and a directory where a file belongs: a one-line
# diagnostic and a nonzero exit, never an uncaught exception
bad_input() {
  if "$cli" "$@" < /dev/null > "$out/badarg.log" 2>&1; then
    echo "FAIL: '$*' exited 0"; cat "$out/badarg.log"; exit 1
  fi
  if grep -q "internal error" "$out/badarg.log"; then
    echo "FAIL: '$*' died on an uncaught exception"; cat "$out/badarg.log"
    exit 1
  fi
}
bad_input fuzz --budget 20 --jobs 0
bad_input fuzz --budget 20 --jobs=-3
bad_input fuzz --budget 20 --shard-size 10 --stop-after=-1
bad_input resume --checkpoint "$out/cp.json" --jobs 0
bad_input analyze "$out/cp.json" --window 0
bad_input analyze "$out/cp.json" --window=-2
bad_input reduce "$out"

echo "== Campaign analytics: analyze output byte-identical across --jobs =="
"$cli" fuzz --budget 400 --shard-size 100 --jobs 1 \
  --checkpoint "$out/an1.json" > /dev/null
"$cli" fuzz --budget 400 --shard-size 100 --jobs 4 \
  --checkpoint "$out/an4.json" > /dev/null
# the jobs-1 run also exports the curve artifact CI uploads (gitignored
# bench/out/)
"$cli" analyze "$out/an1.json" --csv "$out/an1.csv" --json "$out/an1.series.json" \
  --export bench/out/curves > "$out/an1.log"
"$cli" analyze "$out/an4.json" --csv "$out/an4.csv" --json "$out/an4.series.json" \
  > "$out/an4.log"
diff "$out/an1.csv" "$out/an4.csv" || {
  echo "FAIL: analyze --csv differs between --jobs 1 and --jobs 4"; exit 1; }
diff "$out/an1.series.json" "$out/an4.series.json" || {
  echo "FAIL: analyze --json differs between --jobs 1 and --jobs 4"; exit 1; }
# the rendered report too, up to the file paths each run names
diff <(grep -v '^checkpoint: \|^wrote ' "$out/an1.log") \
     <(grep -v '^checkpoint: \|^wrote ' "$out/an4.log") || {
  echo "FAIL: analyze report differs between --jobs 1 and --jobs 4"; exit 1; }
grep -q '^analytics: ' "$out/an1.log" || {
  echo "FAIL: analyze printed no analytics summary"; cat "$out/an1.log"; exit 1; }
for f in series.csv analytics.json metrics.prom; do
  [ -s "bench/out/curves/$f" ] || {
    echo "FAIL: analyze --export wrote no bench/out/curves/$f"; exit 1; }
done

echo "== Checkpoint info: v4 files name their observability artifacts =="
"$cli" checkpoint info "$out/an1.json" > "$out/an_info.log"
grep -q '^observability: telemetry no  trace no  analytics yes$' "$out/an_info.log" || {
  echo "FAIL: checkpoint info lacks the observability artifact flags"
  cat "$out/an_info.log"; exit 1; }
grep -q '^analytics: ' "$out/an_info.log" || {
  echo "FAIL: checkpoint info lacks the analytics sample count"
  cat "$out/an_info.log"; exit 1; }

echo "== Examples: every example runs to completion =="
# tier-1 builds the examples but never runs them
for ex in quickstart extended_theories differential_campaign \
          generator_construction solver_tour; do
  "$PWD/_build/default/examples/$ex.exe" > "$out/example_$ex.log" 2>&1 || {
    echo "FAIL: examples/$ex.ml exited nonzero"; cat "$out/example_$ex.log"; exit 1; }
done

echo "== report: triage reports for the clusters fuzz --no-breakers finds =="
"$cli" report --seed 7 --budget 400 > "$out/report.log"
"$cli" fuzz --seed 7 --budget 400 --no-breakers > "$out/nobreakers.log"
sed -n 's/^- crash\/cluster signature: `\(.*\)`$/\1/p' "$out/report.log" \
  | sort > "$out/report.keys"
sed -n 's/^  \[[^]]*\] \(.*\)  x[0-9]*\(  -> .*\)\{0,1\}$/\1/p' \
  "$out/nobreakers.log" | sort > "$out/nobreakers.keys"
[ -s "$out/nobreakers.keys" ] || {
  echo "FAIL: fuzz --no-breakers listed no clusters"; cat "$out/nobreakers.log"; exit 1; }
diff "$out/report.keys" "$out/nobreakers.keys" || {
  echo "FAIL: report and fuzz --no-breakers name different clusters"; exit 1; }

echo "OK"
