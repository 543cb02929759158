#!/bin/sh
# Smoke check: tier-1 tests, then tiny runner grids end-to-end.
#
# Usage: scripts/smoke.sh   (from the repository root)
#        SMOKE_SKIP_TESTS=1 scripts/smoke.sh   (grids only — CI runs the
#        tier-1 suite as its own step first)
#
# Exercises the full stack: the unit/property/integration suite, an
# 8-spec (scenario × algorithm × seed) grid across 2 worker processes,
# a second invocation that must be served entirely from the result
# cache (through the persistent pool backend), a 2-spec grid on the
# asynchronous event engine, a 2-spec grid
# on its batched events-fast twin (distinct cache entries from the
# scalar event runs), a 2-spec large-N grid (1024-node machines) on
# the vectorized rounds-fast engine, a 2-spec grid under the
# O(1)-memory summary recorder (which must not share cache entries
# with the full-recorded runs), a replicate-batched 4-seed grid whose
# cache entries must replay under the plain scalar path (batched and
# solo runs share cache keys), the scenario catalogue listing, a
# composed-scenario (component grammar) grid on the fast path, a cold
# 16384-node hotspot run under a timeout (placement set-up stays
# O(k·(N+E))), a cold 65536-node uniform run under a timeout, and a
# 2-spec divisible-load grid on the fluid engine.
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

if [ "${SMOKE_SKIP_TESTS:-0}" != "1" ]; then
    echo "==> tier-1 tests"
    python -m pytest -x -q
fi

CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
GRID="--scenarios mesh-hotspot torus-hotspot --algorithms pplb diffusion \
      --seeds 2 --rounds 120 --cache-dir $CACHE_DIR/cache"

echo "==> runner grid (8 specs, 2 workers, cold cache)"
python -m repro.cli run-grid $GRID --workers 2 | tee "$CACHE_DIR/first.out"
grep -q "8 specs: 8 executed, 0 from cache" "$CACHE_DIR/first.out"
# workers=2 transparently upgrades to the persistent pool backend.
grep -q "runner: pool backend, 2 worker(s)" "$CACHE_DIR/first.out"

echo "==> runner grid again (must be fully cached, via the pool backend)"
python -m repro.cli run-grid $GRID --workers 2 --backend pool \
    | tee "$CACHE_DIR/second.out"
grep -q "8 specs: 0 executed, 8 from cache" "$CACHE_DIR/second.out"

echo "==> event-engine grid (2 specs, async execution model)"
python -m repro.cli run-grid --scenarios straggler --algorithms pplb diffusion \
    --seeds 1 --rounds 120 --engine events --cache-dir "$CACHE_DIR/cache" \
    | tee "$CACHE_DIR/events.out"
grep -q "2 specs: 2 executed, 0 from cache" "$CACHE_DIR/events.out"

echo "==> events-fast grid (2 specs, batched async execution model)"
# Same scenarios/seeds as the scalar event grid above: the engines must
# never share cache entries, so these execute rather than replay.
python -m repro.cli run-grid --scenarios straggler --algorithms pplb diffusion \
    --seeds 1 --rounds 120 --engine events-fast --cache-dir "$CACHE_DIR/cache" \
    | tee "$CACHE_DIR/events_fast.out"
grep -q "2 specs: 2 executed, 0 from cache" "$CACHE_DIR/events_fast.out"

echo "==> vectorized fast-path grid (2 specs, 1024-node machines)"
python -m repro.cli run-grid --scenarios torus-32x32 hotspot-scaled \
    --algorithms pplb --seeds 1 --rounds 60 --engine rounds-fast \
    --cache-dir "$CACHE_DIR/cache" | tee "$CACHE_DIR/fast.out"
grep -q "2 specs: 2 executed, 0 from cache" "$CACHE_DIR/fast.out"

echo "==> summary-recorder grid (2 specs, O(1) record memory)"
# Same scenario/seed as the full-recorded grid above: distinct recorder
# policies must produce distinct cache entries, never replay each other.
python -m repro.cli run-grid --scenarios mesh-hotspot --algorithms pplb diffusion \
    --seeds 1 --rounds 120 --recorder summary --cache-dir "$CACHE_DIR/cache" \
    | tee "$CACHE_DIR/summary.out"
grep -q "2 specs: 2 executed, 0 from cache" "$CACHE_DIR/summary.out"

echo "==> replicate-batched grid (4 seeds in one vectorised simulation)"
python -m repro.cli run-grid --scenarios mesh-random --algorithms pplb \
    --seeds 4 --rounds 60 --engine rounds-fast --batch-replicates 4 \
    --cache-dir "$CACHE_DIR/cache" | tee "$CACHE_DIR/batch.out"
grep -q "4 specs: 4 executed, 0 from cache" "$CACHE_DIR/batch.out"

echo "==> batched cache entries replay under the scalar path"
# Batching is invisible to the cache: the same grid without
# --batch-replicates must be served entirely from the batched entries.
python -m repro.cli run-grid --scenarios mesh-random --algorithms pplb \
    --seeds 4 --rounds 60 --engine rounds-fast \
    --cache-dir "$CACHE_DIR/cache" | tee "$CACHE_DIR/batch_replay.out"
grep -q "4 specs: 0 executed, 4 from cache" "$CACHE_DIR/batch_replay.out"

echo "==> scenario catalogue (registered names + component registries)"
python -m repro.cli scenarios > "$CACHE_DIR/scenarios.out"
grep -q "mesh-hotspot" "$CACHE_DIR/scenarios.out"
grep -q "dynamics components" "$CACHE_DIR/scenarios.out"

echo "==> composed-scenario grid (component grammar, 1024-node fast path)"
python -m repro.cli run-grid --scenarios "mesh:32x32+hotspot+stragglers" \
    --algorithms pplb diffusion --seeds 1 --rounds 60 --engine rounds-fast \
    --cache-dir "$CACHE_DIR/cache" | tee "$CACHE_DIR/composed.out"
grep -q "2 specs: 2 executed, 0 from cache" "$CACHE_DIR/composed.out"

echo "==> 16384-node hotspot, cold (set-up must not build all-pairs hops)"
# The hotspot centre comes from a few BFS passes; an all-pairs hop
# matrix here would take ~3 GB and most of a minute, so a timeout
# catches it coming back. (`run` never touches the result cache.)
timeout 120 python -m repro.cli run --scenario "mesh:128x128+hotspot" \
    --engine rounds-fast --rounds 5 > "$CACHE_DIR/hotspot_16k.out"
grep -q "pplb on mesh:128x128+hotspot" "$CACHE_DIR/hotspot_16k.out"

echo "==> 65536-node uniform mesh, cold (array-first topology, bulk placement)"
# 524288 tasks on a 256x256 mesh: the topology is built from NumPy edge
# arrays and the tasks are placed in one bulk call, so set-up takes well
# under a second and three rounds fit easily in the timeout.
timeout 60 python -m repro.cli run --scenario "mesh:256x256+uniform" \
    --engine rounds-fast --rounds 3 > "$CACHE_DIR/uniform_64k.out"
grep -q "pplb on mesh:256x256+uniform" "$CACHE_DIR/uniform_64k.out"

echo "==> fluid-engine grid (2 specs, divisible-load model)"
python -m repro.cli run-grid --scenarios mesh-hotspot \
    --algorithms fluid-diffusion fluid-sos --seeds 1 --rounds 120 \
    --engine fluid --cache-dir "$CACHE_DIR/cache" | tee "$CACHE_DIR/fluid.out"
grep -q "2 specs: 2 executed, 0 from cache" "$CACHE_DIR/fluid.out"

echo "==> cache stats / reindex / clear round-trip"
# Capture to files rather than piping into grep -q: grep exiting early
# would hand the CLI a broken pipe (and mask its exit status).
python -m repro.cli cache stats --cache-dir "$CACHE_DIR/cache" > "$CACHE_DIR/stats.out"
grep -q "entries    : 24" "$CACHE_DIR/stats.out"
grep -q "mean entry" "$CACHE_DIR/stats.out"
grep -q "indexed    : 24/24" "$CACHE_DIR/stats.out"
grep -q "events-fast: 2" "$CACHE_DIR/stats.out"
python -m repro.cli cache reindex --cache-dir "$CACHE_DIR/cache" \
    > "$CACHE_DIR/reindex.out"
grep -q "indexed 24 cached result" "$CACHE_DIR/reindex.out"
python -m repro.cli cache stats --cache-dir "$CACHE_DIR/cache" --engine events-fast \
    > "$CACHE_DIR/stats_filtered.out"
grep -q "entries    : 2 (events-fast)" "$CACHE_DIR/stats_filtered.out"
python -m repro.cli cache clear --cache-dir "$CACHE_DIR/cache" > "$CACHE_DIR/clear.out"
grep -q "removed 24 cached result" "$CACHE_DIR/clear.out"

echo "==> smoke OK"
