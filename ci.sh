#!/bin/sh
# The canonical verification gate for this repository. Keep in sync with
# ROADMAP.md's "Tier-1 verify" line; CI and local pre-merge checks run this.
set -eu
cd "$(dirname "$0")"

# Lint gate: the workspace is clippy-clean and stays that way. Runs first
# (dev profile) so style/correctness lints fail fast, before the release
# build. Skippable only where clippy is genuinely unavailable.
if [ "${LLHD_SKIP_CLIPPY:-0}" != "1" ] && cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
    # A second pass with every feature on lints the fault-injection
    # module (src/fault.rs, tests/chaos.rs), which the default set skips.
    cargo clippy --workspace --all-targets --all-features -- -D warnings
fi

# Rustdoc gate: the public API documentation (including intra-doc links)
# must build warning-free. --no-deps keeps it fast; doctests themselves
# run as part of `cargo test` below.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Tests run in release so they reuse the artifacts of the build above
# instead of recompiling the whole workspace in the dev profile.
cargo build --release --workspace --all-targets
cargo test -q --release --workspace

# Large-design engine differential gate: the interpreter against blaze
# on the largest generated designs (32-lane FIR bank, 16-row NoC mesh) —
# traces, VCD output and statistics must be byte-identical. The test is
# #[ignore]d because it is release-weight; this is its one canonical
# invocation.
cargo test -q --release -p llhd-designs --test differential -- \
    --ignored --exact largest_generated_design_engine_differential
echo "ci.sh: large-design engine differential gate OK"

# Chaos gate: the deterministic fault-injection harness (see
# "Failure model" in ARCHITECTURE.md) storms a live server with injected
# panics, broken reads, and queue pressure under a fixed seed, and
# asserts the process survives serving well-formed responses throughout.
# The fixed seed keeps CI replayable; the hard timeout turns a wedged
# server (the exact failure the harness exists to catch) into a loud
# failure instead of a hung pipeline.
LLHD_CHAOS_SEED=42 timeout 300 \
    cargo test -q --release -p llhd-server --features fault-injection --test chaos || {
    echo "ci.sh: chaos test failed or timed out (seed 42)" >&2
    exit 1
}
echo "ci.sh: chaos test OK (seed 42)"

# Differential fuzz smoke gate: 80 freshly generated designs, each run
# on the reference interpreter plus four blaze variants (full pipeline,
# fusion off, specialization off, fully generic) with
# constrained-random stimulus including checkpoint/restore cuts — any
# trace/VCD/stats/peek mismatch fails the gate (see "Differential
# fuzzing" in ARCHITECTURE.md). The fixed seed keeps CI replayable; a
# divergence writes a shrunk replay artifact and prints the command to
# reproduce it. To bump the seed set after an engine change, pick a new
# base seed, run `fuzz --seed <new> --cases 1000` locally until clean,
# then update both the seed here and this comment's history: 0x11d4.
# The hard timeout turns a wedged engine into a loud failure.
timeout 300 ./target/release/fuzz --seed 0x11d4 --cases 80 \
    --artifact-dir target/fuzz-artifacts || {
    echo "ci.sh: differential fuzz smoke gate failed (seed 0x11d4)" >&2
    echo "ci.sh: any artifact written above replays the divergence" >&2
    exit 1
}
# The committed regression corpus replays inside `cargo test` (the
# corpus test in llhd-designs), so promoted finds are already covered.
echo "ci.sh: differential fuzz smoke gate OK (seed 0x11d4)"

# Server smoke test: a request → response → shutdown round-trip through
# the real llhd-server binary over stdio (the same protocol the TCP mode
# speaks; see docs/PROTOCOL.md). Three requests in, three ok-responses
# out, clean exit — under a hard timeout so a server that stops reading
# or never exits fails the gate instead of hanging it.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
cat > "$SMOKE_DIR/requests" <<'EOF'
{"type":"ping","id":1}
{"type":"sim","id":2,"source":"proc @blink () -> (i1$ %led) { entry: %on = const i1 1 %off = const i1 0 %t = const time 5ns drv i1$ %led, %on after %t wait %next for %t next: drv i1$ %led, %off after %t wait %entry for %t }","top":"blink","until_ns":100}
{"type":"shutdown","id":3}
EOF
timeout 60 ./target/release/llhd-server --stdio --stats-interval 0 \
    < "$SMOKE_DIR/requests" > "$SMOKE_DIR/responses" || {
    echo "ci.sh: server stdio smoke test failed or timed out" >&2
    cat "$SMOKE_DIR/responses" >&2
    exit 1
}
# (`|| true`: grep -c exits 1 on zero matches, which `set -e` would turn
# into a silent abort before the diagnostics below could print.)
OK_COUNT=$(grep -c '"ok":true' "$SMOKE_DIR/responses" || true)
if [ "$OK_COUNT" != "3" ]; then
    echo "ci.sh: server stdio smoke test failed; responses were:" >&2
    cat "$SMOKE_DIR/responses" >&2
    exit 1
fi
grep -q '"signal_changes":20' "$SMOKE_DIR/responses" || {
    echo "ci.sh: server smoke test: unexpected sim result:" >&2
    cat "$SMOKE_DIR/responses" >&2
    exit 1
}
echo "ci.sh: server stdio smoke test OK"

# Router smoke test: the fleet tier end to end through the real binaries.
# Two workers on ephemeral ports, a stdio router in front: ping, a
# source-keyed sim, a design-key sim (served via the router's placement
# memo), a fleet stats rollup, shutdown. Five ok-responses out, workers
# still alive afterwards (the router is a tier, not their supervisor),
# all under a hard timeout. The design key is the one-line blink
# source's content fingerprint, deterministic for that exact text (the
# id-2 request above ships it, and its response echoes the key).
./target/release/llhd-server --tcp 127.0.0.1:0 --stats-interval 0 --server-id smoke-w0 \
    2> "$SMOKE_DIR/w0.log" & W0_PID=$!
./target/release/llhd-server --tcp 127.0.0.1:0 --stats-interval 0 --server-id smoke-w1 \
    2> "$SMOKE_DIR/w1.log" & W1_PID=$!
trap 'kill $W0_PID $W1_PID 2>/dev/null; rm -rf "$SMOKE_DIR"' EXIT
for LOG in w0.log w1.log; do
    TRIES=0
    until grep -q 'listening on' "$SMOKE_DIR/$LOG"; do
        TRIES=$((TRIES + 1))
        if [ "$TRIES" -gt 100 ]; then
            echo "ci.sh: router smoke test: a worker never announced its port" >&2
            exit 1
        fi
        sleep 0.1
    done
done
W0_ADDR=$(sed -n 's/.*listening on //p' "$SMOKE_DIR/w0.log" | head -n 1)
W1_ADDR=$(sed -n 's/.*listening on //p' "$SMOKE_DIR/w1.log" | head -n 1)
cat > "$SMOKE_DIR/router-requests" <<'EOF'
{"type":"ping","id":1}
{"type":"sim","id":2,"source":"proc @blink () -> (i1$ %led) { entry: %on = const i1 1 %off = const i1 0 %t = const time 5ns drv i1$ %led, %on after %t wait %next for %t next: drv i1$ %led, %off after %t wait %entry for %t }","top":"blink","until_ns":100}
{"type":"sim","id":3,"design":"1ad3ee7740fe7fb7a31948fd806ba3c6","top":"blink","until_ns":100}
{"type":"stats","id":4}
{"type":"shutdown","id":5}
EOF
timeout 60 ./target/release/llhd-router --stdio \
    --worker "w0=$W0_ADDR" --worker "w1=$W1_ADDR" \
    < "$SMOKE_DIR/router-requests" > "$SMOKE_DIR/router-responses" || {
    echo "ci.sh: router stdio smoke test failed or timed out" >&2
    cat "$SMOKE_DIR/router-responses" >&2
    exit 1
}
ROUTER_OK=$(grep -c '"ok":true' "$SMOKE_DIR/router-responses" || true)
if [ "$ROUTER_OK" != "5" ]; then
    echo "ci.sh: router smoke test failed; responses were:" >&2
    cat "$SMOKE_DIR/router-responses" >&2
    exit 1
fi
# The keyed sim (id 3) must have been served, not rejected as unknown —
# the placement memo routes it to the worker that elaborated the source.
grep -q '"id":3,"result":{"design":"1ad3ee7740fe7fb7a31948fd806ba3c6"' \
    "$SMOKE_DIR/router-responses" || {
    echo "ci.sh: router smoke test: keyed sim was not served from the fleet:" >&2
    cat "$SMOKE_DIR/router-responses" >&2
    exit 1
}
# The rollup names both workers by their self-reported identity.
for WID in smoke-w0 smoke-w1; do
    grep -q "\"server_id\":\"$WID\"" "$SMOKE_DIR/router-responses" || {
        echo "ci.sh: router smoke test: stats rollup is missing $WID:" >&2
        cat "$SMOKE_DIR/router-responses" >&2
        exit 1
    }
done
# The workers outlive the router's shutdown.
for PID in $W0_PID $W1_PID; do
    kill -0 "$PID" 2>/dev/null || {
        echo "ci.sh: router smoke test: a worker died with the router" >&2
        exit 1
    }
done
kill $W0_PID $W1_PID 2>/dev/null
wait $W0_PID $W1_PID 2>/dev/null || true
trap 'rm -rf "$SMOKE_DIR"' EXIT
echo "ci.sh: router stdio smoke test OK"

# Benchmark regression gate: re-measure the simulation and serialization
# suites in quick mode and fail if any median regressed more than 20%
# against the committed BENCH_simulation.json / BENCH_serialization.json
# baselines (quick-mode regressions are re-measured at full length before
# the gate fails). Prints the comparison tables either way. The baselines
# are machine-specific wall-clock data, so on hardware unlike the one
# that produced them (or on a loaded CI runner), skip the gate with
# LLHD_SKIP_BENCH_GATE=1 — the build and tests above are unaffected.
if [ "${LLHD_SKIP_BENCH_GATE:-0}" != "1" ]; then
    cargo run --release -q -p llhd-bench --bin bench_gate -- --quick
fi
