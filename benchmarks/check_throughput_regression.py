"""CI trend tracking: diff a fresh benchmark run against the baseline.

Compares a freshly generated ``BENCH_throughput.json`` against the
committed baseline at the repository root and **fails (exit 1) on a
> ``--threshold`` (default 30%) regression**.

What is compared, and why:

* **speedup ratios** (``speedup``, ``speedup_update_only``, ...) are the
  primary gate.  A ratio divides two timings taken on the same machine
  in the same process, so machine speed cancels out — the committed
  baseline may come from a different host than the CI runner and the
  comparison stays meaningful.  A regressing ratio means the batched
  kernels genuinely lost ground against the per-example path.
* **absolute throughput** (``*_eps``) is machine-dependent, so it is
  reported as informational deltas only, unless ``--strict-eps`` is
  passed (useful when baseline and current run on the same hardware).

Also understands ``BENCH_parallel.json`` (``--kind parallel``): there
the gate is the 4-worker modeled speedup ratio; a non-monotone fresh
scaling curve is warned about but not gated (per-step monotonicity is
timing-sensitive on shared runners — the committed baseline is the
artifact that demonstrates it).

``--kind query`` gates ``BENCH_query.json`` (the serving fast path:
batched-vs-scalar predict/query speedup ratios plus absolute floors),
and ``--kind alloc`` gates ``BENCH_alloc.json`` (the fused path's
steady-state peak-transient bytes under byte ceilings — a byte count
does not depend on machine speed, only on the kernel backend).

``--kind serving`` gates ``BENCH_serving.json`` (the micro-batching
coalescer's coalesced-vs-serial saturation-throughput ratios plus
absolute floors — the WM floor is PR 6's 3x acceptance bar),
``--kind telemetry`` gates ``BENCH_telemetry.json`` (the telemetry
overhead contract: tracing-enabled training throughput within 3% of
disabled), ``--kind publish`` gates ``BENCH_publish.json`` (the
O(dirty) incremental snapshot publication: full-copy vs incremental
publish latency, headline speedup at 2^20 buckets), and ``--kind ps``
gates ``BENCH_ps.json`` (the parameter-server sync fabric: O(dirty)
delta bytes vs full-table bytes per push, plus the modeled 1->4 worker
critical-path scaling), and ``--kind resilience`` gates
``BENCH_resilience.json`` (overload goodput at 2x saturation through
the bounded server, plus the chaos run's bit-identical crash recovery).

Every absolute floor is declared once in ``benchmarks/gates.json`` —
the policy file this checker loads at import (one section per
``--kind``); edit the floors there, not here.

Run::

    PYTHONPATH=src python benchmarks/bench_update_throughput.py --out /tmp/fresh.json
    python benchmarks/check_throughput_regression.py \
        --current /tmp/fresh.json --baseline BENCH_throughput.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Ratio metrics gated by default (machine-speed cancels out).
RATIO_KEYS = (
    "speedup",
    "speedup_update_only",
    "speedup_including_batching",
)
#: Absolute metrics reported (and gated only with --strict-eps).
EPS_KEYS = (
    "per_example_eps",
    "batched_eps",
)

#: The declared gate policy: every absolute floor lives in
#: benchmarks/gates.json (one section per --kind), loaded here so the
#: floors the CLI enforces and the policy the repo declares cannot
#: drift apart (tests/test_bench_regression_check.py asserts they
#: agree).  The legacy module-level constants below are views into it.
GATES_PATH = Path(__file__).resolve().with_name("gates.json")
GATES = json.loads(GATES_PATH.read_text())

#: The benchmark kinds the CLI accepts — exactly the policy sections.
KINDS = tuple(sorted(GATES.keys() - {"_comment"}))

#: Absolute floors on the *current* run's batched-vs-per-example
#: speedup ratios for the store-carrying configurations (PR 3's
#: array-backed top-K layer).  Unlike the baseline diff, these hold
#: regardless of what is committed: a "refresh" of the baseline cannot
#: quietly ratify a collapse of the vectorized heap layer back toward
#: the sequential-Python era (wm_with_heap ~3.0x, awm ~1.4x at the
#: PR 2 seed).  Values sit ~30% under the committed-baseline ratios,
#: the same noise allowance the relative gate uses, because a ratio
#: still moves when CPU-frequency drift lands unevenly across a run's
#: timing rounds.
SPEEDUP_FLOORS = GATES["throughput"]["floors"]

#: Floors for BENCH_query.json (--kind query): batched-vs-scalar
#: serving speedups per configuration.  Ratios of same-process timings,
#: so machine speed cancels; values sit ~35-50% under the committed
#: numbers (query_speedup is large and noisy — the scalar side is
#: per-key Python — so it gets the wider allowance).
QUERY_FLOORS = GATES["query"]["floors"]
#: Ratio metrics diffed against the baseline for --kind query.
QUERY_RATIO_KEYS = ("predict_speedup", "query_speedup", "hot_over_cold")

#: Ceilings for BENCH_alloc.json (--kind alloc): the fused path's
#: steady-state peak-transient bytes per configuration, measured on
#: numpy (CI's backend).  They replace a fused-vs-unfused reduction
#: gate at its pass line: with the per-kernel chain's last numpy peaks
#: (951,688 B without a heap, 1,196,674 B with one), that gate passed
#: iff the fused peak stayed under ~112.4 KB and ~159.2 KB, rounded
#: down here to 112,000 and 159,000 B.
ALLOC_CEILINGS = GATES["alloc"]["ceilings"]

#: Floors for BENCH_serving.json (--kind serving): coalesced-vs-serial
#: saturation throughput per configuration.  Both sides of the ratio
#: come from the same process, but closed-loop saturation is sensitive
#: to runner core count and scheduling, so floors sit well under the
#: committed numbers.  The WM floor is the PR's acceptance bar (3x);
#: the AWM config is structurally low-speedup (most Zipf keys are exact
#: active-set members, so the scalar query path is already cheap) and
#: gets an anti-collapse floor only.
SERVING_FLOORS = GATES["serving"]["floors"]
#: Ratio metrics diffed against the baseline for --kind serving.
SERVING_RATIO_KEYS = ("coalescing_speedup",)

#: Floors for BENCH_telemetry.json (--kind telemetry): the telemetry
#: overhead contract.  ``telemetry_overhead_ratio`` divides
#: tracing-enabled by tracing-disabled Fig. 7 training throughput
#: measured interleaved in one process (best-of-rounds per side), so
#: machine speed cancels; the 0.97 floor is the PR's "within 3%"
#: acceptance bar.
TELEMETRY_FLOORS = GATES["telemetry"]["floors"]
#: Ratio metrics diffed against the baseline for --kind telemetry.
TELEMETRY_RATIO_KEYS = ("telemetry_overhead_ratio",)

#: Floors for BENCH_publish.json (--kind publish): the headline
#: incremental-vs-full publish speedup at 2^20 buckets.  Both sides of
#: the ratio come from the same process on the same dirty state, so
#: machine speed cancels; the 5.0 floor is the PR's acceptance bar
#: ("incremental >= 5x faster than the full copy at 2^20"), the same
#: convention as the serving coalescer floor.
PUBLISH_FLOORS = GATES["publish"]["floors"]

#: Floors for BENCH_ps.json (--kind ps): the headline full-table-bytes
#: / delta-bytes ratio per parameter-server push at 2^20 buckets.  Pure
#: byte accounting from one in-process run — no timing anywhere in the
#: ratio — so it is fully machine-independent and can be floor-gated
#: hard even on fresh CI runs.  The 5.0 floor is the PR's acceptance
#: bar ("delta sync ships >= 5x fewer bytes than full-state sync at
#: 2^20"); the committed run sits far above it (~45x), so the floor
#: only trips on a real structural regression (dirty tracking gone
#: conservative, codec shipping clean chunks).
PS_FLOORS = GATES["ps"]["floors"]

#: Floors for BENCH_resilience.json (--kind resilience).
#: ``goodput_ratio`` divides the bounded server's admitted-completion
#: rate under a 2x-saturation open-loop drive by the same process's
#: measured closed-loop saturation — same machine, same run, so host
#: speed cancels; the 0.8 floor is the PR's acceptance bar ("shed the
#: excess, keep serving at >= 0.8x saturation").
#: ``recovery_bit_identical`` is binary and floored at 1.0: the chaos
#: run's recovered table either equals the fault-free single-stream
#: table bit-for-bit (and passes the snapshot-consistency check) or
#: crash recovery is broken — there is no partial credit.
RESILIENCE_FLOORS = GATES["resilience"]["floors"]


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _configs(doc: dict) -> dict[str, dict]:
    """The per-configuration rows of a throughput benchmark document."""
    return {
        name: row
        for name, row in doc.items()
        if isinstance(row, dict) and "speedup" in row
    }


def check_floors(current: dict, floors: dict[str, float]) -> list[str]:
    """Absolute speedup floors on the current run (see SPEEDUP_FLOORS)."""
    failures: list[str] = []
    curr_configs = _configs(current)
    for name, floor in sorted(floors.items()):
        row = curr_configs.get(name)
        if row is None:
            failures.append(
                f"{name}: floor-gated config missing from current run"
            )
            continue
        speedup = row.get("speedup", 0.0)
        marker = "FAIL" if speedup < floor else "ok"
        print(f"  {name:>16}.speedup floor {floor:>6.2f}  "
              f"current {speedup:>6.2f}  {marker}")
        if speedup < floor:
            failures.append(
                f"{name}.speedup: {speedup:.2f} below the {floor:.2f} "
                f"floor (vectorized top-K store layer regressed)"
            )
    return failures


def _compare_config_rows(
    base_configs: dict,
    curr_configs: dict,
    threshold: float,
    strict_eps: bool,
    failures: list[str],
    prefix: str = "",
) -> int:
    """Diff one set of per-configuration rows; returns the gated count."""
    gated_comparisons = 0
    for name, base_row in sorted(base_configs.items()):
        label = f"{prefix}{name}"
        curr_row = curr_configs.get(name)
        if curr_row is None:
            failures.append(f"{label}: missing from current run")
            continue
        for key in RATIO_KEYS + (EPS_KEYS if strict_eps else ()):
            if key not in base_row or key not in curr_row:
                continue
            base_v, curr_v = base_row[key], curr_row[key]
            if base_v <= 0:
                continue
            change = curr_v / base_v - 1.0
            gated = key in RATIO_KEYS or strict_eps
            if gated:
                gated_comparisons += 1
            marker = "FAIL" if (change < -threshold and gated) else "ok"
            print(f"  {label:>16}.{key:<28} {base_v:>12,.2f} -> "
                  f"{curr_v:>12,.2f}  ({change:+.1%}) {marker}")
            if change < -threshold and gated:
                failures.append(
                    f"{label}.{key}: {base_v:,.2f} -> {curr_v:,.2f} "
                    f"({change:+.1%} < -{threshold:.0%})"
                )
        for key in () if strict_eps else EPS_KEYS:
            if key in base_row and key in curr_row and base_row[key] > 0:
                change = curr_row[key] / base_row[key] - 1.0
                print(f"  {label:>16}.{key:<28} {base_row[key]:>12,.0f} -> "
                      f"{curr_row[key]:>12,.0f}  ({change:+.1%}) info-only")
    return gated_comparisons


def check_throughput(
    current: dict, baseline: dict, threshold: float, strict_eps: bool
) -> list[str]:
    """Returns the list of failing regressions (empty = pass)."""
    failures: list[str] = []
    # Top-level rows are the numpy-reference backend — the primary gate.
    gated_comparisons = _compare_config_rows(
        _configs(baseline), _configs(current), threshold, strict_eps,
        failures,
    )
    if gated_comparisons == 0:
        # A baseline (or current run) whose schema carries none of the
        # gated metrics would otherwise disable the gate silently.
        failures.append(
            "no gated metrics found to compare — baseline or current "
            "JSON is malformed / stale-schema; the gate cannot vouch "
            "for anything"
        )
    # Extra kernel-backend sections (e.g. the compiled c rows).
    # Gated like the numpy rows when both sides carry them; a backend
    # present in the baseline but absent from the current run (c not
    # buildable on this host) is *skipped with a notice*, never
    # silently and never as a failure — the numpy rows above already
    # vouch for the run.
    base_backends = baseline.get("backends") or {}
    curr_backends = current.get("backends") or {}
    for backend_name, base_rows in sorted(base_backends.items()):
        curr_rows = curr_backends.get(backend_name)
        if curr_rows is None:
            print(
                f"  NOTICE: baseline carries '{backend_name}' kernel-"
                f"backend rows but the current run has none (backend "
                f"unavailable on this host) — skipping the "
                f"{backend_name} comparisons"
            )
            continue
        print(f"  [{backend_name} backend]")
        _compare_config_rows(
            _configs(base_rows), _configs(curr_rows), threshold,
            strict_eps, failures, prefix=f"{backend_name}:",
        )
    return failures


def check_query(
    current: dict, baseline: dict, threshold: float
) -> list[str]:
    """Gate for BENCH_query.json: serving-speedup ratios + floors."""
    failures: list[str] = []
    curr_rows = {
        name: row
        for name, row in current.items()
        if isinstance(row, dict) and "predict_speedup" in row
    }
    base_rows = {
        name: row
        for name, row in baseline.items()
        if isinstance(row, dict) and "predict_speedup" in row
    }
    if not curr_rows:
        failures.append(
            "no per-config rows in the current query benchmark — "
            "malformed / stale-schema JSON"
        )
        return failures
    for name, base_row in sorted(base_rows.items()):
        curr_row = curr_rows.get(name)
        if curr_row is None:
            failures.append(f"{name}: missing from current query run")
            continue
        for key in QUERY_RATIO_KEYS:
            if key not in base_row or key not in curr_row:
                continue
            base_v, curr_v = base_row[key], curr_row[key]
            if base_v <= 0:
                continue
            change = curr_v / base_v - 1.0
            marker = "FAIL" if change < -threshold else "ok"
            print(f"  {name:>16}.{key:<18} {base_v:>9.2f} -> "
                  f"{curr_v:>9.2f}  ({change:+.1%}) {marker}")
            if change < -threshold:
                failures.append(
                    f"{name}.{key}: {base_v:.2f} -> {curr_v:.2f} "
                    f"({change:+.1%} < -{threshold:.0%})"
                )
    for name, floors in sorted(QUERY_FLOORS.items()):
        row = curr_rows.get(name)
        if row is None:
            failures.append(
                f"{name}: floor-gated config missing from query run"
            )
            continue
        for key, floor in sorted(floors.items()):
            value = row.get(key, 0.0)
            marker = "FAIL" if value < floor else "ok"
            print(f"  {name:>16}.{key} floor {floor:>6.2f}  "
                  f"current {value:>8.2f}  {marker}")
            if value < floor:
                failures.append(
                    f"{name}.{key}: {value:.2f} below the {floor:.2f} "
                    f"floor (serving fast path regressed)"
                )
    return failures


def check_alloc(current: dict, baseline: dict, threshold: float) -> list[str]:
    """Gate for BENCH_alloc.json: fused peak-transient bytes against
    the ceilings, and against the committed peaks (a peak above
    ``committed / (1 - threshold)`` fails, the byte form of the
    relative check the other kinds apply to ratios)."""
    failures: list[str] = []
    for name, ceiling in sorted(ALLOC_CEILINGS.items()):
        peak = (current.get(name) or {}).get("peak_transient_bytes")
        base = (baseline.get(name) or {}).get("peak_transient_bytes", 0)
        if peak is None:
            failures.append(f"{name}: missing from the current run")
            continue
        marker = "FAIL" if peak > ceiling else "ok"
        print(f"  {name:>16}.peak_transient_bytes ceiling {ceiling:>9,}  "
              f"baseline {base:>9,}  current {peak:>9,}  {marker}")
        if peak > ceiling:
            failures.append(
                f"{name}.peak_transient_bytes: {peak:,} above the "
                f"{ceiling:,} ceiling (fused path re-allocating per batch)"
            )
        if base > 0 and peak > base / (1.0 - threshold):
            failures.append(
                f"{name}.peak_transient_bytes: {base:,} -> {peak:,} "
                f"(above the committed peak / {1.0 - threshold:.2f})"
            )
    return failures


def check_serving(
    current: dict, baseline: dict, threshold: float
) -> list[str]:
    """Gate for BENCH_serving.json: coalescing-speedup ratios + floors.

    Each ratio divides a coalesced and a serial-scalar closed-loop
    timing from the same process, so host speed cancels; what does NOT
    cancel is the runner's core count / scheduler (closed-loop
    saturation needs real client concurrency), hence the generous CI
    threshold and the absolute floors doing the heavy lifting.
    """
    failures: list[str] = []
    curr_rows = {
        name: row
        for name, row in current.items()
        if isinstance(row, dict) and "coalescing_speedup" in row
    }
    base_rows = {
        name: row
        for name, row in baseline.items()
        if isinstance(row, dict) and "coalescing_speedup" in row
    }
    if not curr_rows:
        failures.append(
            "no per-config rows in the current serving benchmark — "
            "malformed / stale-schema JSON"
        )
        return failures
    base_n = (baseline.get("workload") or {}).get("n_requests")
    curr_n = (current.get("workload") or {}).get("n_requests")
    if base_n is not None and curr_n is not None and base_n != curr_n:
        print(
            f"  WARNING: request counts differ (baseline n_requests="
            f"{base_n}, current {curr_n}); saturation ratios are "
            f"workload-size biased — floors are the binding gate"
        )
    for name, base_row in sorted(base_rows.items()):
        curr_row = curr_rows.get(name)
        if curr_row is None:
            failures.append(f"{name}: missing from current serving run")
            continue
        for key in SERVING_RATIO_KEYS:
            if key not in base_row or key not in curr_row:
                continue
            base_v, curr_v = base_row[key], curr_row[key]
            if base_v <= 0:
                continue
            change = curr_v / base_v - 1.0
            marker = "FAIL" if change < -threshold else "ok"
            print(f"  {name:>16}.{key:<20} {base_v:>8.2f} -> "
                  f"{curr_v:>8.2f}  ({change:+.1%}) {marker}")
            if change < -threshold:
                failures.append(
                    f"{name}.{key}: {base_v:.2f} -> {curr_v:.2f} "
                    f"({change:+.1%} < -{threshold:.0%})"
                )
    for name, floors in sorted(SERVING_FLOORS.items()):
        row = curr_rows.get(name)
        if row is None:
            failures.append(
                f"{name}: floor-gated config missing from serving run"
            )
            continue
        for key, floor in sorted(floors.items()):
            value = row.get(key, 0.0)
            marker = "FAIL" if value < floor else "ok"
            print(f"  {name:>16}.{key} floor {floor:>5.2f}  "
                  f"current {value:>6.2f}  {marker}")
            if value < floor:
                failures.append(
                    f"{name}.{key}: {value:.2f} below the {floor:.2f} "
                    f"floor (micro-batching coalescer regressed)"
                )
    return failures


def check_telemetry(
    current: dict, baseline: dict, threshold: float
) -> list[str]:
    """Gate for BENCH_telemetry.json: the telemetry overhead contract.

    ``telemetry_overhead_ratio`` = tracing-enabled / tracing-disabled
    Fig. 7 training throughput, both sides best-of-interleaved-rounds
    from one process — so the ratio is machine-independent and the
    absolute 0.97 floor ("within 3% of disabled") is the binding gate.
    The baseline diff only catches a *collapse* of the ratio (the
    generous --threshold applies; a ratio hovering at ~1.0 barely
    moves otherwise).
    """
    failures: list[str] = []
    curr_rows = {
        name: row
        for name, row in current.items()
        if isinstance(row, dict) and "telemetry_overhead_ratio" in row
    }
    base_rows = {
        name: row
        for name, row in baseline.items()
        if isinstance(row, dict) and "telemetry_overhead_ratio" in row
    }
    if not curr_rows:
        failures.append(
            "no per-config rows in the current telemetry benchmark — "
            "malformed / stale-schema JSON"
        )
        return failures
    for name, base_row in sorted(base_rows.items()):
        curr_row = curr_rows.get(name)
        if curr_row is None:
            failures.append(f"{name}: missing from current telemetry run")
            continue
        for key in TELEMETRY_RATIO_KEYS:
            if key not in base_row or key not in curr_row:
                continue
            base_v, curr_v = base_row[key], curr_row[key]
            if base_v <= 0:
                continue
            change = curr_v / base_v - 1.0
            marker = "FAIL" if change < -threshold else "ok"
            print(f"  {name:>16}.{key:<26} {base_v:>6.3f} -> "
                  f"{curr_v:>6.3f}  ({change:+.1%}) {marker}")
            if change < -threshold:
                failures.append(
                    f"{name}.{key}: {base_v:.3f} -> {curr_v:.3f} "
                    f"({change:+.1%} < -{threshold:.0%})"
                )
    for name, floors in sorted(TELEMETRY_FLOORS.items()):
        row = curr_rows.get(name)
        if row is None:
            failures.append(
                f"{name}: floor-gated config missing from telemetry run"
            )
            continue
        for key, floor in sorted(floors.items()):
            value = row.get(key, 0.0)
            marker = "FAIL" if value < floor else "ok"
            print(f"  {name:>16}.{key} floor {floor:>5.2f}  "
                  f"current {value:>6.3f}  {marker}")
            if value < floor:
                failures.append(
                    f"{name}.{key}: {value:.3f} below the {floor:.2f} "
                    f"floor (telemetry overhead exceeds the 3% contract)"
                )
    return failures


def check_publish(
    current: dict, baseline: dict, threshold: float
) -> list[str]:
    """Gate for BENCH_publish.json: the O(dirty) publication win.

    The binding gate is the absolute floor on the headline
    ``incremental_speedup`` (full-copy publish time / incremental
    publish time at 2^20 buckets, both medians from one process on the
    same dirty state — machine speed cancels).  The baseline diff
    additionally catches a collapse of the headline; per-width rows are
    printed informationally so a drifting crossover is visible in the
    log without making every width a flaky gate.
    """
    failures: list[str] = []
    curr_sp = current.get("incremental_speedup", 0.0)
    base_sp = baseline.get("incremental_speedup", 0.0)
    if not isinstance(curr_sp, (int, float)) or curr_sp <= 0:
        failures.append(
            "current publish benchmark carries no positive "
            "incremental_speedup headline — malformed / stale-schema "
            "JSON"
        )
        return failures
    for width, row in sorted(
        (current.get("widths") or {}).items(), key=lambda kv: int(kv[0])
    ):
        print(f"  width {int(width):>9}: full {row['full_publish_ms']:>7.3f}ms "
              f"incr {row['incremental_publish_ms']:>7.3f}ms "
              f"({row['incremental_speedup']:>5.1f}x, "
              f"dirty {row['dirty_fraction_mean']:.1%}) info-only")
    if base_sp > 0:
        change = curr_sp / base_sp - 1.0
        marker = "FAIL" if change < -threshold else "ok"
        print(f"  incremental_speedup {base_sp:.2f} -> {curr_sp:.2f} "
              f"({change:+.1%}) {marker}")
        if change < -threshold:
            failures.append(
                f"incremental_speedup: {base_sp:.2f} -> {curr_sp:.2f} "
                f"({change:+.1%} < -{threshold:.0%})"
            )
    for key, floor in sorted(PUBLISH_FLOORS.items()):
        value = current.get(key, 0.0)
        marker = "FAIL" if value < floor else "ok"
        print(f"  {key} floor {floor:>5.2f}  current {value:>6.2f}  {marker}")
        if value < floor:
            failures.append(
                f"{key}: {value:.2f} below the {floor:.2f} floor "
                f"(O(dirty) incremental publication regressed)"
            )
    return failures


def check_ps(current: dict, baseline: dict, threshold: float) -> list[str]:
    """Gate for BENCH_ps.json: the O(dirty) delta-sync win.

    The binding gate is the absolute floor on the headline
    ``delta_bytes_ratio`` (full-table wire bytes / actual pushed delta
    bytes at 2^20 buckets) — pure byte accounting, no timing, so it
    holds on any host and a fresh run is gated as hard as the committed
    baseline.  The modeled worker-scaling side is timing-based and gets
    the ``--kind parallel`` treatment: a non-monotone fresh curve is a
    warning (one CPU-steal spike inverts a step on shared runners; the
    committed baseline demonstrates monotonicity), and only a collapse
    of ``speedup_4_workers`` against the baseline fails.  Per-width
    delta-bytes rows are printed informationally so a drifting dirty
    fraction is visible in the log without making every width a gate.
    """
    failures: list[str] = []
    curr_ratio = current.get("delta_bytes_ratio", 0.0)
    if not isinstance(curr_ratio, (int, float)) or curr_ratio <= 0:
        failures.append(
            "current ps benchmark carries no positive delta_bytes_ratio "
            "headline — malformed / stale-schema JSON"
        )
        return failures
    for width, row in sorted(
        (current.get("widths") or {}).items(), key=lambda kv: int(kv[0])
    ):
        print(f"  width {int(width):>9}: push {row['mean_push_bytes']:>12,.0f}B "
              f"full {row['full_table_bytes']:>12,.0f}B "
              f"({row['delta_bytes_ratio']:>5.1f}x, "
              f"dirty {row['dirty_fraction_mean']:.1%}) info-only")
    base_ratio = baseline.get("delta_bytes_ratio", 0.0)
    if base_ratio > 0:
        change = curr_ratio / base_ratio - 1.0
        marker = "FAIL" if change < -threshold else "ok"
        print(f"  delta_bytes_ratio {base_ratio:.2f} -> {curr_ratio:.2f} "
              f"({change:+.1%}) {marker}")
        if change < -threshold:
            failures.append(
                f"delta_bytes_ratio: {base_ratio:.2f} -> {curr_ratio:.2f} "
                f"({change:+.1%} < -{threshold:.0%})"
            )
    for key, floor in sorted(PS_FLOORS.items()):
        value = current.get(key, 0.0)
        marker = "FAIL" if value < floor else "ok"
        print(f"  {key} floor {floor:>5.2f}  current {value:>6.2f}  {marker}")
        if value < floor:
            failures.append(
                f"{key}: {value:.2f} below the {floor:.2f} floor "
                f"(O(dirty) delta sync regressed toward full-state sync)"
            )
    if not current.get("monotone_1_to_4_workers", False):
        print(
            "  WARNING: fresh run's modeled PS throughput not monotone "
            "1->4 workers (timing noise on shared runners is the usual "
            "cause; investigate if speedup_4_workers also regressed)"
        )
    base_sp = baseline.get("speedup_4_workers", 0.0)
    curr_sp = current.get("speedup_4_workers", 0.0)
    if base_sp > 0:
        change = curr_sp / base_sp - 1.0
        marker = "FAIL" if change < -threshold else "ok"
        print(f"  speedup_4_workers {base_sp:.2f} -> {curr_sp:.2f} "
              f"({change:+.1%}) {marker}")
        if change < -threshold:
            failures.append(
                f"speedup_4_workers: {base_sp:.2f} -> {curr_sp:.2f} "
                f"({change:+.1%} < -{threshold:.0%})"
            )
    else:
        failures.append(
            "baseline lacks a positive speedup_4_workers — malformed / "
            "stale-schema ps baseline; the gate cannot vouch for anything"
        )
    return failures


def check_resilience(
    current: dict, baseline: dict, threshold: float
) -> list[str]:
    """Gate for BENCH_resilience.json: overload goodput + crash recovery.

    Both headlines are absolute-floored on the *current* run:
    ``goodput_ratio`` is a same-process throughput ratio (machine speed
    cancels; scheduler/core-count noise gets the ~0.8 floor margin
    under the committed ~1.2x), and ``recovery_bit_identical`` is a
    hard 1.0 — a diverged recovery is a correctness bug, never noise.
    The baseline diff additionally catches a goodput collapse that
    stays above the floor.  Shed counts and recovery wall time are
    printed informationally.
    """
    failures: list[str] = []
    curr_ratio = current.get("goodput_ratio", 0.0)
    if not isinstance(curr_ratio, (int, float)) or curr_ratio <= 0:
        failures.append(
            "current resilience benchmark carries no positive "
            "goodput_ratio headline — malformed / stale-schema JSON"
        )
        return failures
    overload = current.get("overload") or {}
    if overload:
        print(f"  overload: offered {overload.get('offered_rps', 0):,.0f} rps"
              f" -> goodput {overload.get('goodput_rps', 0):,.0f} rps, "
              f"shed {overload.get('shed_overload', 0)} overload / "
              f"{overload.get('shed_deadline', 0)} deadline, "
              f"admitted p99 {overload.get('admitted_p99_ms', 0):.2f}ms "
              f"info-only")
    recovery = current.get("recovery") or {}
    if recovery:
        print(f"  recovery: {recovery.get('crashes', 0)} crash / "
              f"{recovery.get('recoveries', 0)} respawn in "
              f"{recovery.get('recovery_seconds', 0) * 1e3:.2f}ms, "
              f"{recovery.get('faults_fired', 0)} faults fired info-only")
    base_ratio = baseline.get("goodput_ratio", 0.0)
    if base_ratio > 0:
        change = curr_ratio / base_ratio - 1.0
        marker = "FAIL" if change < -threshold else "ok"
        print(f"  goodput_ratio {base_ratio:.2f} -> {curr_ratio:.2f} "
              f"({change:+.1%}) {marker}")
        if change < -threshold:
            failures.append(
                f"goodput_ratio: {base_ratio:.2f} -> {curr_ratio:.2f} "
                f"({change:+.1%} < -{threshold:.0%})"
            )
    for key, floor in sorted(RESILIENCE_FLOORS.items()):
        value = current.get(key, 0.0)
        marker = "FAIL" if value < floor else "ok"
        print(f"  {key} floor {floor:>5.2f}  current {value:>6.2f}  {marker}")
        if value < floor:
            failures.append(
                f"{key}: {value:.2f} below the {floor:.2f} floor "
                + ("(overload shedding no longer preserves goodput)"
                   if key == "goodput_ratio" else
                   "(crash recovery diverged from the fault-free table)")
            )
    return failures


def check_parallel(
    current: dict, baseline: dict, threshold: float
) -> list[str]:
    """Gate for BENCH_parallel.json: the 4-worker speedup ratio.

    Only the ratio is gated — it divides two timings from the same
    machine and run, so host speed cancels.  The fresh run's
    ``monotone_1_to_4_workers`` flag is timing-sensitive on shared
    runners (one CPU-steal spike inverts a step), so a false flag is
    reported as a warning, not a failure; the committed baseline is the
    artifact that demonstrates monotone scaling.
    """
    failures: list[str] = []
    if not current.get("monotone_1_to_4_workers", False):
        print(
            "  WARNING: fresh run's modeled throughput not monotone "
            "1->4 workers (timing noise on shared runners is the usual "
            "cause; investigate if the speedup ratio also regressed)"
        )
    base_sp = baseline.get("speedup_4_workers", 0.0)
    curr_sp = current.get("speedup_4_workers", 0.0)
    if base_sp > 0:
        change = curr_sp / base_sp - 1.0
        marker = "FAIL" if change < -threshold else "ok"
        print(f"  speedup_4_workers {base_sp:.2f} -> {curr_sp:.2f} "
              f"({change:+.1%}) {marker}")
        if change < -threshold:
            failures.append(
                f"speedup_4_workers: {base_sp:.2f} -> {curr_sp:.2f} "
                f"({change:+.1%} < -{threshold:.0%})"
            )
    else:
        failures.append(
            "baseline lacks a positive speedup_4_workers — malformed / "
            "stale-schema baseline; the gate cannot vouch for anything"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = Path(__file__).resolve().parent.parent
    parser.add_argument(
        "--current", required=True,
        help="freshly generated benchmark JSON",
    )
    parser.add_argument(
        "--baseline", default=str(root / "BENCH_throughput.json"),
        help="committed baseline JSON (default: repo root)",
    )
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="fractional regression that fails (0.30 = 30%%)")
    parser.add_argument(
        "--kind",
        choices=KINDS,
        default="throughput",
    )
    parser.add_argument(
        "--strict-eps", action="store_true",
        help="also gate absolute examples/sec (same-hardware comparisons)",
    )
    parser.add_argument(
        "--no-floors", action="store_true",
        help="skip the absolute speedup floors on store-carrying "
             "configs (for runs against pre-store benchmark schemas)",
    )
    args = parser.parse_args(argv)

    if not Path(args.current).exists():
        # The emission steps are '|| true'-guarded in CI (their exit
        # codes encode noisy-runner warnings), so a benchmark that
        # *crashes* reaches this gate with no JSON.  That is the most
        # severe regression possible — the benchmark cannot run — and
        # must fail the gate with a clear message, not a traceback and
        # not a skippable warning.
        print(
            f"ERROR: current benchmark output {args.current!r} does "
            f"not exist — the benchmark crashed before writing it; "
            f"see the benchmark step's log",
            file=sys.stderr,
        )
        return 1
    if not Path(args.baseline).exists():
        # The baseline is a *committed* artifact; its absence is a repo
        # configuration error the gate must not paper over.
        print(
            f"ERROR: committed baseline {args.baseline!r} does not "
            f"exist; commit one (run the benchmark) or point "
            f"--baseline at it",
            file=sys.stderr,
        )
        return 2
    current = _load(args.current)
    baseline = _load(args.baseline)
    print(f"baseline: {args.baseline}\ncurrent:  {args.current}")
    base_n = (baseline.get("workload") or {}).get("n_examples")
    curr_n = (current.get("workload") or {}).get("n_examples")
    if base_n is not None and curr_n is not None and base_n != curr_n:
        # Ratios are workload-size dependent (fixed overheads weigh
        # more on shorter streams), so cross-size comparisons carry a
        # structural bias on top of noise.
        print(
            f"  WARNING: workload sizes differ (baseline n_examples="
            f"{base_n}, current {curr_n}); ratio comparison is biased — "
            f"rerun the benchmark at the baseline's size"
        )
    if args.kind == "parallel":
        failures = check_parallel(current, baseline, args.threshold)
    elif args.kind == "query":
        failures = check_query(current, baseline, args.threshold)
    elif args.kind == "alloc":
        failures = check_alloc(current, baseline, args.threshold)
    elif args.kind == "serving":
        failures = check_serving(current, baseline, args.threshold)
    elif args.kind == "telemetry":
        failures = check_telemetry(current, baseline, args.threshold)
    elif args.kind == "publish":
        failures = check_publish(current, baseline, args.threshold)
    elif args.kind == "ps":
        failures = check_ps(current, baseline, args.threshold)
    elif args.kind == "resilience":
        failures = check_resilience(current, baseline, args.threshold)
    else:
        failures = check_throughput(
            current, baseline, args.threshold, args.strict_eps
        )
        if not args.no_floors:
            failures += check_floors(current, SPEEDUP_FLOORS)
    if failures:
        print(f"\nREGRESSION ({len(failures)}):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nno regression beyond threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
