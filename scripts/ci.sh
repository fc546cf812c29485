#!/usr/bin/env bash
# Hermetic CI: the whole pipeline must pass offline, proving the
# workspace builds from the standard library alone (no registry, no
# network, no vendored sources).
#
# Usage: scripts/ci.sh [--bench-smoke]
#   --bench-smoke  additionally run the benchmark (BENCHMARK.json) in its
#                  --smoke mode: one short round of every workload, whose
#                  simulated-output digests must match
#                  expected_digests.json.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=0
if [[ "${1:-}" == "--bench-smoke" ]]; then
    BENCH_SMOKE=1
fi

echo "== offline release build =="
cargo build --release --offline --workspace

echo "== offline tests =="
cargo test -q --offline --workspace

echo "== kernel equivalence (HEALTHMON_THREADS=1/2/7) =="
# The one integer crossbar kernel (lanes over a conv layer's patches or a
# dense layer's padded batch, fold and ADC fused) must match a plain
# scalar loop of the tile's integer product bit for bit, on one tile,
# on tile grids and in the column layout, and the f32 reference
# semantics — bitwise with converters off, within one quantization step
# otherwise; the conv hook (pixels quantized once, codes unfolded) must
# match the product over the unfolded patches bit for bit; each f32 GEMM
# tier (AVX-512, AVX, portable; a tier the CPU lacks is skipped by name)
# and the block-fed product must match the naive loop bit for bit; the
# conv layer's segment unfold/fold must match the per-element loops bit
# for bit through forward and backward, which run the pooled GEMM, and
# the blocked digital conv product must match the product over the whole
# patch matrix, at every thread count; max-pooling's selects must match
# the branching loops they replaced; diagnosis's one golden walk must
# rank every zoo model's layers exactly as cloning the golden network per
# probe did, and the drift fault's vectorized loop must match a plain
# scalar loop bit for bit. Every tier of the per-weight fault kernels
# (AVX-512, AVX2, AVX, portable; a tier the CPU lacks is skipped by name)
# must match the loops it replaced bit for bit: the block sampler against
# the two-loop fill_normal/fill_lognormal, fused programming variation and
# drift against fill-then-multiply, and Crossbar::program's scan, quantize
# loops, seed codes and IntState words and column sums against the old
# loops; tests/fault_path.rs pins every zoo model's faulted weights, the
# samplers' variates and the faulted logits on four backends to digests
# of the build before those kernels were vectorized, and
# crates/nn/tests/training_path.rs (run with healthmon-nn) pins every zoo
# model's and a hand-built net's forward logits, gradients, optimizer and
# drop-connect steps, state-dict keys and non-finite localization to
# digests of the build before each layer's parameter list and forward
# arithmetic were merged. The detector's unit tests and
# tests/campaign_path.rs (run with healthmon) pin every campaign entry
# point, detection_rates, detection_rates_with on the digital, analog,
# bit-sliced and IR-dropped specs and detection_rates_resumable across
# JSON-reloaded legs, rates and Stable telemetry, to values of the build
# before the three campaign sweeps became one. The runtime, fleet and
# monitor unit tests and tests/lifetime_path.rs (run with healthmon) pin
# the reports, checkpoints and Stable telemetry of lifetimes that repair
# and degrade on the digital, analog and bit-sliced backends, a degraded
# lifetime resumed and stepped at a shed checkup depth, and a fleet under
# a budget that sheds depth and devices (its report, shards and resumed
# report), to values of the build before the fleet held one golden
# reference and resumes restored instead of reprogramming. A divergence
# here fails CI before any benchmark of these fast paths is taken seriously;
# the zoo smoke below then compares every model's digital campaign with
# its golden (tests/golden/zoo_campaign_*.txt).
for t in 1 2 7; do
    HEALTHMON_THREADS=$t cargo test -q --offline -p healthmon-reram > /dev/null
    HEALTHMON_THREADS=$t cargo test -q --offline -p healthmon-tensor > /dev/null
    HEALTHMON_THREADS=$t cargo test -q --offline -p healthmon-nn > /dev/null
    HEALTHMON_THREADS=$t cargo test -q --offline -p healthmon --lib diagnose > /dev/null
    HEALTHMON_THREADS=$t cargo test -q --offline -p healthmon-faults > /dev/null
    HEALTHMON_THREADS=$t cargo test -q --offline -p healthmon --test fault_path > /dev/null
    HEALTHMON_THREADS=$t cargo test -q --offline -p healthmon --lib detect > /dev/null
    HEALTHMON_THREADS=$t cargo test -q --offline -p healthmon --test campaign_path > /dev/null
    HEALTHMON_THREADS=$t cargo test -q --offline -p healthmon --lib runtime > /dev/null
    HEALTHMON_THREADS=$t cargo test -q --offline -p healthmon --lib fleet > /dev/null
    HEALTHMON_THREADS=$t cargo test -q --offline -p healthmon --lib monitor > /dev/null
    HEALTHMON_THREADS=$t cargo test -q --offline -p healthmon --test lifetime_path > /dev/null
done
echo "ok: integer crossbar kernel, f32 GEMM tiers and blocks, conv unfold/fold and"
echo "    blocked product, max-pool, diagnosis walk, drift, and every tier of the"
echo "    block sampler, fused PV/drift and crossbar programming equivalent to"
echo "    their references, and the fault path, the training path, the detector"
echo "    tests and the campaign path, the runtime, fleet and monitor tests and"
echo "    the lifetime path on their pinned values, under HEALTHMON_THREADS=1/2/7"

echo "== offline clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== offline docs (warnings are errors) =="
# --exclude healthmon-cli: its bin target shares the `healthmon` name with
# the core lib, which trips cargo's doc filename-collision warning.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --exclude healthmon-cli > /dev/null
echo "ok: rustdoc is warning-clean"

echo "== lockfile is workspace-only =="
if grep -E '^source = ' Cargo.lock; then
    echo "ERROR: Cargo.lock references an external registry source" >&2
    exit 1
fi
echo "ok: every locked package is a workspace member"

echo "== lifetime smoke (checkpoint resume + thread-count determinism) =="
lt_dir="$(pwd)/target/lifetime-smoke"
rm -rf "$lt_dir"
mkdir -p "$lt_dir"
hm=./target/release/healthmon
"$hm" train --arch mlp --out "$lt_dir/model.json" --epochs 2 --train-size 300 --quiet true
lt_flags=(--arch mlp --model "$lt_dir/model.json" --epochs 6 --count 8 --drift 0.25 --stuck-lambda 0.5)
# Uninterrupted reference run, then the same lifetime killed after three
# epochs and resumed from its checkpoint: the reports must be identical
# down to the byte.
"$hm" lifetime "${lt_flags[@]}" --report "$lt_dir/full.txt" > /dev/null
"$hm" lifetime "${lt_flags[@]}" --checkpoint "$lt_dir/cp.json" --stop-after 3 > /dev/null
"$hm" lifetime "${lt_flags[@]}" --checkpoint "$lt_dir/cp.json" --report "$lt_dir/resumed.txt" > /dev/null
cmp "$lt_dir/full.txt" "$lt_dir/resumed.txt"
grep -q "repair #" "$lt_dir/full.txt"  # the smoke must exercise a repair session
echo "ok: resumed lifetime report is byte-identical to the uninterrupted run"
# The determinism contract holds at any thread count (DESIGN.md §6c):
# HEALTHMON_THREADS is latched per process, so vary it across runs.
for t in 1 2 7; do
    HEALTHMON_THREADS=$t "$hm" lifetime "${lt_flags[@]}" \
        --report "$lt_dir/threads_$t.txt" > /dev/null
done
cmp "$lt_dir/threads_1.txt" "$lt_dir/threads_2.txt"
cmp "$lt_dir/threads_1.txt" "$lt_dir/threads_7.txt"
echo "ok: lifetime report is byte-identical under HEALTHMON_THREADS=1/2/7"

echo "== backend matrix smoke (digital goldens + analog/bitsliced execution) =="
# The digital path must stay byte-identical forever: the text goldens in
# tests/golden/ were captured before the backend refactor, and the JSON
# inputs they were captured against are regenerated bit-exactly here
# (training/inject/generate are seed-deterministic).
cmp "$lt_dir/full.txt" tests/golden/backend_lifetime.txt
"$hm" inject --arch mlp --model "$lt_dir/model.json" --fault pv:0.5 \
    --out "$lt_dir/faulty.json" > /dev/null
"$hm" generate --arch mlp --model "$lt_dir/model.json" --method ctp --count 10 \
    --out "$lt_dir/patterns.json" > /dev/null
for t in 1 2 7; do
    rc=0
    HEALTHMON_THREADS=$t "$hm" check --arch mlp --model "$lt_dir/model.json" \
        --target "$lt_dir/faulty.json" --patterns "$lt_dir/patterns.json" \
        > "$lt_dir/check_$t.txt" || rc=$?
    [[ "$rc" == "2" ]]  # the pv:0.5 device must be flagged FAULTY
    cmp "$lt_dir/check_$t.txt" tests/golden/backend_check.txt
done
echo "ok: digital check/lifetime byte-identical to the seed goldens under HEALTHMON_THREADS=1/2/7"
# Every subcommand of the detect stack runs on every backend.
for b in digital analog bitsliced; do
    rc=0
    "$hm" check --arch mlp --model "$lt_dir/model.json" --target "$lt_dir/faulty.json" \
        --patterns "$lt_dir/patterns.json" --backend "$b" > "$lt_dir/check_$b.txt" || rc=$?
    [[ "$rc" == "2" ]]  # heavy damage must be flagged on every backend
    "$hm" campaign --arch mlp --model "$lt_dir/model.json" --patterns "$lt_dir/patterns.json" \
        --fault pv:0.4 --count 8 --backend "$b" > "$lt_dir/campaign_$b.txt"
    "$hm" lifetime --arch mlp --model "$lt_dir/model.json" --epochs 3 --count 8 \
        --drift 0.25 --stuck-lambda 0.5 --backend "$b" > "$lt_dir/lifetime_$b.txt"
    grep -q "final state:" "$lt_dir/lifetime_$b.txt"
done
# Crossbar repairs are thread-invariant too: these lifetimes drift hard
# enough that the reprogram rung (program fresh, then remap) runs.
for b in analog bitsliced; do
    for t in 1 2 7; do
        HEALTHMON_THREADS=$t "$hm" lifetime --arch mlp --model "$lt_dir/model.json" --epochs 4 \
            --count 8 --drift 0.5 --stuck-lambda 1 --backend "$b" > "$lt_dir/lifetime_${b}_$t.txt"
    done
    cmp "$lt_dir/lifetime_${b}_1.txt" "$lt_dir/lifetime_${b}_2.txt"
    cmp "$lt_dir/lifetime_${b}_1.txt" "$lt_dir/lifetime_${b}_7.txt"
    grep -q "repair #" "$lt_dir/lifetime_${b}_1.txt"
done
"$hm" deploy --arch mlp --model "$lt_dir/model.json" --backend analog > "$lt_dir/deploy.txt"
grep -q "logit divergence" "$lt_dir/deploy.txt"
# Analog lifetimes keep live conductance state and must refuse --checkpoint.
if "$hm" lifetime --arch mlp --model "$lt_dir/model.json" --epochs 2 --backend analog \
    --checkpoint "$lt_dir/bad.json" 2>/dev/null; then
    echo "ERROR: analog lifetime accepted --checkpoint" >&2
    exit 1
fi
echo "ok: backend matrix (check/campaign/deploy/lifetime x digital/analog/bitsliced) passed"

echo "== hardening smoke (drop-connect training + scrubbing lifetimes + mitigation table) =="
# Drop-connect training is seed-deterministic and thread-count-invariant:
# the same command must produce byte-identical hardened state dicts.
for t in 1 2 7; do
    HEALTHMON_THREADS=$t "$hm" train --arch mlp --out "$lt_dir/hardened_$t.json" \
        --epochs 2 --train-size 300 --quiet true --drop-connect 0.1 > /dev/null
done
cmp "$lt_dir/hardened_1.json" "$lt_dir/hardened_2.json"
cmp "$lt_dir/hardened_1.json" "$lt_dir/hardened_7.json"
# ... and must actually differ from plain training.
if cmp -s "$lt_dir/hardened_1.json" "$lt_dir/model.json"; then
    echo "ERROR: --drop-connect produced the plainly trained weights" >&2
    exit 1
fi
echo "ok: hardened training byte-identical under HEALTHMON_THREADS=1/2/7"
# Scrubbing lifetimes run on every backend, stay thread-invariant, and
# report their scrub tally.
for b in digital analog bitsliced; do
    for t in 1 2 7; do
        rc=0
        HEALTHMON_THREADS=$t "$hm" lifetime --arch mlp --model "$lt_dir/hardened_1.json" \
            --epochs 4 --count 8 --drift 0.0 --soft 0.0001 --stuck-lambda 0.0 \
            --backend "$b" --hardened true > "$lt_dir/lifetime_hard_${b}_$t.txt" || rc=$?
        [[ "$rc" == "0" || "$rc" == "2" ]]  # healthy or parked, never a usage error
    done
    cmp "$lt_dir/lifetime_hard_${b}_1.txt" "$lt_dir/lifetime_hard_${b}_2.txt"
    cmp "$lt_dir/lifetime_hard_${b}_1.txt" "$lt_dir/lifetime_hard_${b}_7.txt"
    grep -q "soft errors scrubbed:" "$lt_dir/lifetime_hard_${b}_1.txt"
done
echo "ok: hardened lifetime (digital/analog/bitsliced) byte-identical under HEALTHMON_THREADS=1/2/7"
# The mitigation cost/benefit table: deterministic text and JSON artifact
# on every backend.
for b in digital analog bitsliced; do
    for t in 1 2 7; do
        HEALTHMON_THREADS=$t "$hm" campaign --arch mlp --model "$lt_dir/model.json" \
            --hardened true --hardened-model "$lt_dir/hardened_1.json" \
            --patterns "$lt_dir/patterns.json" --fault soft:0.01 --count 4 \
            --backend "$b" --json "$lt_dir/mitigation_${b}_$t.json" \
            > "$lt_dir/mitigation_${b}_$t.txt"
    done
    cmp "$lt_dir/mitigation_${b}_1.txt" "$lt_dir/mitigation_${b}_2.txt"
    cmp "$lt_dir/mitigation_${b}_1.txt" "$lt_dir/mitigation_${b}_7.txt"
    cmp "$lt_dir/mitigation_${b}_1.json" "$lt_dir/mitigation_${b}_2.json"
    cmp "$lt_dir/mitigation_${b}_1.json" "$lt_dir/mitigation_${b}_7.json"
    grep -q "repairs avoided by hardening:" "$lt_dir/mitigation_${b}_1.txt"
done
mkdir -p artifacts
cp "$lt_dir/mitigation_digital_1.json" artifacts/mitigation_smoke.json
echo "ok: mitigation table (text + JSON) byte-identical under HEALTHMON_THREADS=1/2/7;"
echo "    artifact written to artifacts/mitigation_smoke.json"

echo "== telemetry smoke (pure observation + thread-invariant stable series) =="
# Telemetry is purely observational: with --trace on, every primary output
# (stdout report, exit code) must stay byte-identical to the telemetry-off
# runs captured by the backend matrix above. The human telemetry report
# goes to stderr, the machine-readable snapshot to --metrics.
for b in digital analog bitsliced; do
    rc=0
    "$hm" check --arch mlp --model "$lt_dir/model.json" --target "$lt_dir/faulty.json" \
        --patterns "$lt_dir/patterns.json" --backend "$b" \
        --trace true --metrics "$lt_dir/check_tel_$b.jsonl" \
        > "$lt_dir/check_tel_$b.txt" 2> "$lt_dir/check_tel_$b.err" || rc=$?
    [[ "$rc" == "2" ]]  # verdict unchanged by tracing
    cmp "$lt_dir/check_tel_$b.txt" "$lt_dir/check_$b.txt"
    grep -q "== healthmon telemetry ==" "$lt_dir/check_tel_$b.err"
    # The emitted JSONL must parse back through healthmon-serdes.
    "$hm" metrics --file "$lt_dir/check_tel_$b.jsonl" | grep -q "counters"
    "$hm" lifetime --arch mlp --model "$lt_dir/model.json" --epochs 3 --count 8 \
        --drift 0.25 --stuck-lambda 0.5 --backend "$b" \
        --trace true --metrics "$lt_dir/lifetime_tel_$b.jsonl" \
        > "$lt_dir/lifetime_tel_$b.txt" 2> /dev/null
    cmp "$lt_dir/lifetime_tel_$b.txt" "$lt_dir/lifetime_$b.txt"
    "$hm" metrics --file "$lt_dir/lifetime_tel_$b.jsonl" --format prometheus > /dev/null
done
# HEALTHMON_TRACE enables recording without any flag.
HEALTHMON_TRACE=1 "$hm" check --arch mlp --model "$lt_dir/model.json" \
    --target "$lt_dir/faulty.json" --patterns "$lt_dir/patterns.json" \
    > /dev/null 2> "$lt_dir/check_env.err" || true
grep -q "== healthmon telemetry ==" "$lt_dir/check_env.err"
# Stable series merge to bit-identical aggregates at any thread count;
# `metrics --stable-only` strips the wall-clock-bearing remainder.
for t in 1 2 7; do
    HEALTHMON_THREADS=$t "$hm" campaign --arch mlp --model "$lt_dir/model.json" \
        --patterns "$lt_dir/patterns.json" --fault pv:0.4 --count 8 \
        --metrics "$lt_dir/campaign_tel_$t.jsonl" > /dev/null 2> /dev/null
    "$hm" metrics --file "$lt_dir/campaign_tel_$t.jsonl" --stable-only true \
        --format jsonl > "$lt_dir/campaign_stable_$t.jsonl"
done
cmp "$lt_dir/campaign_stable_1.jsonl" "$lt_dir/campaign_stable_2.jsonl"
cmp "$lt_dir/campaign_stable_1.jsonl" "$lt_dir/campaign_stable_7.jsonl"
echo "ok: telemetry left every primary output byte-identical; stable series"
echo "    byte-identical under HEALTHMON_THREADS=1/2/7"

echo "== model-zoo smoke (registry x digital/analog/bitsliced, HEALTHMON_THREADS=1/2/7) =="
zoo_dir="$(pwd)/target/zoo-smoke"
rm -rf "$zoo_dir"
mkdir -p "$zoo_dir"
# The registry table is deterministic and lists every model.
"$hm" models > "$zoo_dir/models.txt"
for arch in lenet5 convnet7 mlp resnet8 mlp4 attention; do
    grep -q "^$arch " "$zoo_dir/models.txt"
done
# Unknown architectures fail fast and list the whole registry.
if "$hm" train --arch resnet9 --out "$zoo_dir/no.json" 2> "$zoo_dir/unknown.err"; then
    echo "ERROR: unknown --arch was accepted" >&2
    exit 1
fi
grep -q "known models:" "$zoo_dir/unknown.err"
# Every zoo model trains, generates C-TP patterns, and completes a
# detection campaign on all three backends, byte-identical under
# HEALTHMON_THREADS=1/2/7.
for arch in lenet5 convnet7 mlp resnet8 mlp4 attention; do
    "$hm" train --arch "$arch" --out "$zoo_dir/$arch.json" \
        --epochs 1 --train-size 120 --quiet true > /dev/null
    "$hm" generate --arch "$arch" --model "$zoo_dir/$arch.json" --method ctp \
        --count 8 --out "$zoo_dir/${arch}_patterns.json" > /dev/null
    for b in digital analog bitsliced; do
        for t in 1 2 7; do
            HEALTHMON_THREADS=$t "$hm" campaign --arch "$arch" \
                --model "$zoo_dir/$arch.json" \
                --patterns "$zoo_dir/${arch}_patterns.json" \
                --fault pv:0.4 --count 4 --backend "$b" \
                > "$zoo_dir/campaign_${arch}_${b}_$t.txt"
        done
        cmp "$zoo_dir/campaign_${arch}_${b}_1.txt" "$zoo_dir/campaign_${arch}_${b}_2.txt"
        cmp "$zoo_dir/campaign_${arch}_${b}_1.txt" "$zoo_dir/campaign_${arch}_${b}_7.txt"
    done
done
# The three architectures new in the zoo complete a lifetime end-to-end.
for arch in resnet8 mlp4 attention; do
    rc=0
    "$hm" lifetime --arch "$arch" --model "$zoo_dir/$arch.json" --epochs 3 \
        --count 6 --drift 0.25 --stuck-lambda 0.5 \
        > "$zoo_dir/lifetime_$arch.txt" || rc=$?
    [[ "$rc" == "0" || "$rc" == "2" ]]  # healthy or parked, never a usage error
    grep -q "final state:" "$zoo_dir/lifetime_$arch.txt"
done
# Regression goldens for every model's digital campaign: lenet5 and
# convnet7 were captured from the pre-registry build (routing the seed
# architectures through the model zoo must not move a byte); mlp, resnet8,
# mlp4 and attention from the build before the blocked conv product and
# the AVX-512 GEMM tile. Each golden pins the two detection rates of 4
# faulty models at 4 decimals, so it fails on a deterministic kernel
# error that flips one of those verdicts, which the thread-count
# comparison above cannot see; an error that moves logits without
# flipping a verdict still passes.
for arch in lenet5 convnet7 mlp resnet8 mlp4 attention; do
    cmp "$zoo_dir/campaign_${arch}_digital_1.txt" "tests/golden/zoo_campaign_$arch.txt"
done
echo "ok: every zoo model trained and campaigned on digital/analog/bitsliced,"
echo "    byte-identical under HEALTHMON_THREADS=1/2/7; every digital campaign"
echo "    matches its golden (lenet5, convnet7 pre-registry; mlp, resnet8,"
echo "    mlp4, attention before the blocked conv and AVX-512 GEMM)"

echo "== fleet smoke (chaos supervision + kill-9 crash recovery) =="
fleet_dir=target/fleet-smoke
rm -rf "$fleet_dir"
mkdir -p "$fleet_dir"
# A chaos-free fleet is byte-identical at any thread count.
for t in 1 2 7; do
    HEALTHMON_THREADS=$t "$hm" fleet --devices 24 --epochs 4 --seed 11 \
        > "$fleet_dir/clean_$t.txt"
done
cmp "$fleet_dir/clean_1.txt" "$fleet_dir/clean_2.txt"
cmp "$fleet_dir/clean_1.txt" "$fleet_dir/clean_7.txt"
# So is a fleet whose pattern budget sheds checkup depth (shallow epochs)
# and whole devices.
for t in 1 2 7; do
    HEALTHMON_THREADS=$t "$hm" fleet --devices 24 --epochs 4 --seed 11 --budget 40 \
        > "$fleet_dir/budget_$t.txt"
done
cmp "$fleet_dir/budget_1.txt" "$fleet_dir/budget_2.txt"
cmp "$fleet_dir/budget_1.txt" "$fleet_dir/budget_7.txt"
grep -q "shed: [1-9][0-9]* shallow epochs, [1-9][0-9]* skipped epochs" "$fleet_dir/budget_1.txt"
echo "ok: clean and budget-shed fleets byte-identical under HEALTHMON_THREADS=1/2/7"
# 200 devices under chaos (panics, stalls, poisoned distances, checkpoint
# truncation): the run must complete with exit 0/2 — never a process
# abort — quarantine the repeat offenders, and stay deterministic.
chaos_spec="panic:0.35,stall:0.2,stallms:600,poison:0.05,trunc:0.2,seed:13"
rc=0
"$hm" fleet --devices 200 --epochs 4 --seed 17 --quarantine 2 \
    --chaos "$chaos_spec" --checkpoint-dir "$fleet_dir/chaos_cp" \
    > "$fleet_dir/chaos_1.txt" 2> /dev/null || rc=$?
[[ "$rc" == "0" || "$rc" == "2" ]]
rc2=0
HEALTHMON_THREADS=3 "$hm" fleet --devices 200 --epochs 4 --seed 17 --quarantine 2 \
    --chaos "$chaos_spec" --checkpoint-dir "$fleet_dir/chaos_cp2" \
    > "$fleet_dir/chaos_3.txt" 2> /dev/null || rc2=$?
[[ "$rc" == "$rc2" ]]
cmp "$fleet_dir/chaos_1.txt" "$fleet_dir/chaos_3.txt"
# At these rates offenders must exist and be quarantined, not crash the
# fleet.
grep -q "quarantined devices: [1-9]" "$fleet_dir/chaos_1.txt"
grep -q "checkup-panic" "$fleet_dir/chaos_1.txt"
echo "ok: 200-device chaos fleet completed with zero aborts, quarantined offenders,"
echo "    and stayed byte-identical under thread variance"
# Flight recorder + live observability: the same chaos fleet with the
# recorder and snapshot stream armed must (a) leave stdout byte-identical
# to the unobserved run, (b) dump at least one digest-guarded postmortem,
# and (c) produce byte-identical artifacts across reruns and thread
# counts (the artifacts embed only device-local, epoch-keyed state).
rc0=0
"$hm" fleet --devices 200 --epochs 4 --seed 17 --quarantine 2 \
    --chaos "$chaos_spec" > "$fleet_dir/chaos_plain.txt" 2> /dev/null || rc0=$?
for t in 1 2 7; do
    rcf=0
    HEALTHMON_THREADS=$t "$hm" fleet --devices 200 --epochs 4 --seed 17 --quarantine 2 \
        --chaos "$chaos_spec" --flight-dir "$fleet_dir/flight_$t" \
        --snapshot-log "$fleet_dir/stream_$t.jsonl" \
        > "$fleet_dir/chaos_obs_$t.txt" 2> /dev/null || rcf=$?
    [[ "$rcf" == "$rc0" ]]
    cmp "$fleet_dir/chaos_obs_$t.txt" "$fleet_dir/chaos_plain.txt"
done
diff -r "$fleet_dir/flight_1" "$fleet_dir/flight_2"
diff -r "$fleet_dir/flight_1" "$fleet_dir/flight_7"
n_flight=$(ls "$fleet_dir/flight_1" | wc -l)
[[ "$n_flight" -ge 1 ]]
# Every artifact must digest-verify and parse through `healthmon flight`.
for f in "$fleet_dir/flight_1"/incident-*.json; do
    "$hm" flight --file "$f" > /dev/null
done
# The rotating snapshot stream parses through metrics/top. (Grep files,
# not pipes: `grep -q` closing the pipe early would SIGPIPE the CLI.)
"$hm" metrics --file "$fleet_dir/stream_1.jsonl" --last 2 > "$fleet_dir/metrics_last2.txt"
grep -q "epoch" "$fleet_dir/metrics_last2.txt"
"$hm" top --file "$fleet_dir/stream_1.jsonl" > "$fleet_dir/top.txt"
grep -q "healthmon top" "$fleet_dir/top.txt"
echo "ok: flight recorder dumped $n_flight digest-verified postmortems, byte-identical"
echo "    across reruns and HEALTHMON_THREADS=1/2/7, with stdout untouched"
# Kill-9 crash recovery: SIGKILL the process mid-run, then resume from
# the surviving shards. The interrupted run checkpoints after every
# --stop-after slice, so the kill costs at most the in-flight epoch; the
# resumed run must converge to the uninterrupted report byte-for-byte.
"$hm" fleet --devices 24 --epochs 6 --seed 19 > "$fleet_dir/straight.txt"
"$hm" fleet --devices 24 --epochs 6 --seed 19 \
    --checkpoint-dir "$fleet_dir/kill_cp" --stop-after 2 > /dev/null
( "$hm" fleet --devices 24 --epochs 6 --seed 19 \
      --checkpoint-dir "$fleet_dir/kill_cp" > /dev/null 2>&1 & killer_pid=$!
  sleep 0.05; kill -9 "$killer_pid" 2> /dev/null; wait "$killer_pid" 2> /dev/null ) || true
# Whatever state the kill left (epoch-2 shards, or later complete ones —
# atomic writes guarantee no torn files), the resume must finish cleanly.
"$hm" fleet --devices 24 --epochs 6 --seed 19 \
    --checkpoint-dir "$fleet_dir/kill_cp" > "$fleet_dir/resumed.txt" 2> /dev/null
cmp "$fleet_dir/resumed.txt" "$fleet_dir/straight.txt"
echo "ok: kill-9 mid-run, resume byte-identical to the uninterrupted fleet"
# Checkpoint shards are byte-identical at any thread count.
for t in 1 2 7; do
    HEALTHMON_THREADS=$t "$hm" fleet --devices 24 --epochs 6 --seed 23 \
        --checkpoint-dir "$fleet_dir/torn_cp_$t" --stop-after 3 > /dev/null
done
diff -r "$fleet_dir/torn_cp_1" "$fleet_dir/torn_cp_2"
diff -r "$fleet_dir/torn_cp_1" "$fleet_dir/torn_cp_7"
echo "ok: --stop-after checkpoint shards byte-identical under HEALTHMON_THREADS=1/2/7"
# Torn-shard containment: truncate one shard, the resume must report it
# and keep going instead of failing wholesale. The resume builds the torn
# shard's devices fresh after the healthy shards load, and its report
# must not depend on the thread count either.
for t in 1 2 7; do
    torn_shard="$fleet_dir/torn_cp_$t/shard-001.json"
    head -c 100 "$torn_shard" > "$torn_shard.t" && mv "$torn_shard.t" "$torn_shard"
    HEALTHMON_THREADS=$t "$hm" fleet --devices 24 --epochs 6 --seed 23 \
        --checkpoint-dir "$fleet_dir/torn_cp_$t" > "$fleet_dir/torn_$t.txt" 2> /dev/null
done
grep -q "damaged shards: 1" "$fleet_dir/torn_1.txt"
cmp "$fleet_dir/torn_1.txt" "$fleet_dir/torn_2.txt"
cmp "$fleet_dir/torn_1.txt" "$fleet_dir/torn_7.txt"
echo "ok: torn shard reported and contained; healthy shards resumed, and the resumed"
echo "    report byte-identical under HEALTHMON_THREADS=1/2/7"
# Header corruption is contained the same way: one changed digit in a
# shard's config_digest breaks that shard's seal, so the resume reports
# it damaged instead of refusing the whole fleet as operator error.
"$hm" fleet --devices 24 --epochs 6 --seed 23 \
    --checkpoint-dir "$fleet_dir/flip_cp" --stop-after 3 > /dev/null
flip_shard="$fleet_dir/flip_cp/shard-002.json"
cp "$flip_shard" "$fleet_dir/shard-002.orig"
digit=$(grep -o '"config_digest":"[0-9]' "$flip_shard" | head -n 1 | tail -c 2)
sed -i "s/\"config_digest\":\"$digit/\"config_digest\":\"$(( (digit + 1) % 10 ))/" "$flip_shard"
if cmp -s "$flip_shard" "$fleet_dir/shard-002.orig"; then
    echo "ERROR: the config_digest edit did not land" >&2
    exit 1
fi
"$hm" fleet --devices 24 --epochs 6 --seed 23 \
    --checkpoint-dir "$fleet_dir/flip_cp" > "$fleet_dir/flip.txt" 2> /dev/null
grep -q "damaged shards: 1" "$fleet_dir/flip.txt"
echo "ok: a corrupted shard header is contained as one damaged shard"

if [[ "$BENCH_SMOKE" == "1" ]]; then
    echo "== bench smoke (every benchmark workload, digests checked) =="
    # One short round of each workload at one thread and at nproc; the
    # run fails when any simulated output moved (see the benchmark's
    # README, crates/bench/src/bin/benchmark/README.md).
    cargo run --release --offline --quiet -p healthmon-bench --bin benchmark -- \
        --smoke --out-dir target/bench-smoke > target/bench-smoke.txt
    echo "ok: benchmark smoke run matched every workload's expected digest"
fi

echo "CI passed."
