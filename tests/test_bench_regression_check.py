"""The CI benchmark gate: ``benchmarks/gate.py`` under the rules in
``benchmarks/gates.json``.

Most cases start from the committed ``BENCH_<kind>.json`` artifacts
and change one value on one side, the way a fresh CI run differs from
the committed baseline.
"""

from __future__ import annotations

import ast
import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "gate.py"
spec = importlib.util.spec_from_file_location("bench_gate", SCRIPT)
gate = importlib.util.module_from_spec(spec)
sys.modules["bench_gate"] = gate
spec.loader.exec_module(gate)

_DROP = object()


def _artifact(kind):
    return json.loads((ROOT / f"BENCH_{kind}.json").read_text())


def _edit(doc, path, value=_DROP):
    """A copy of ``doc`` with the dotted ``path`` set (or dropped)."""
    doc = copy.deepcopy(doc)
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return doc


def _both(kind, path, value=_DROP):
    """The committed artifact with one edit, as fresh run and baseline."""
    doc = _edit(_artifact(kind), path, value)
    return doc, doc


def _fails(failures, *words):
    return any(all(w in f for w in words) for f in failures)


def _policy():
    return json.loads(SCRIPT.with_name("gates.json").read_text())


class TestThroughputGate:
    def test_identical_runs_pass(self):
        doc = _artifact("throughput")
        assert gate.check("throughput", doc, doc) == []

    def test_ratio_regression_beyond_threshold_fails(self):
        base = _artifact("throughput")
        fresh = _edit(base, "hash.speedup", base["hash"]["speedup"] * 0.6)
        assert _fails(gate.check("throughput", fresh, base), "hash.speedup")

    def test_ratio_regression_within_threshold_passes(self):
        base = _artifact("throughput")
        fresh = _edit(base, "hash.speedup", base["hash"]["speedup"] * 0.75)
        assert gate.check("throughput", fresh, base) == []

    def test_absolute_eps_not_gated_by_default(self):
        # A 10x slower machine with the same speedup ratios passes.
        base = _artifact("throughput")
        fresh = copy.deepcopy(base)
        for row in fresh.values():
            for key in row if isinstance(row, dict) else ():
                if key.endswith("_eps"):
                    row[key] /= 10
        assert gate.check("throughput", fresh, base) == []

    def test_schema_less_baseline_cannot_pass_vacuously(self):
        failures = gate.check("throughput", _artifact("throughput"),
                              {"workload": {}})
        assert _fails(failures, "*.speedup", "matches nothing")

    def test_missing_config_fails(self):
        base = _artifact("throughput")
        failures = gate.check("throughput", _edit(base, "awm"), base)
        assert _fails(failures, "awm.speedup", "missing")


class TestBackendSections:
    """Kernel-backend rows under ``backends.<name>``."""

    def test_compiled_rows_gated_when_both_sides_have_them(self):
        base = _artifact("throughput")
        path = "backends.c.wm_algorithm1.speedup"
        fresh = _edit(base, path,
                      base["backends"]["c"]["wm_algorithm1"]["speedup"] * 0.4)
        assert _fails(gate.check("throughput", fresh, base), path)

    def test_compiled_rows_matching_pass(self):
        doc = _artifact("throughput")
        assert doc["backends"]["c"]
        assert gate.check("throughput", doc, doc) == []

    def test_numba_unavailable_skips_with_notice_not_failure(self, capsys):
        base = _artifact("throughput")
        base["backends"] = {"numba": base["backends"]["c"]}
        fresh = _edit(base, "backends")  # a host without that backend
        assert gate.check("throughput", fresh, base) == []
        out = capsys.readouterr().out
        assert "NOTICE" in out and "backends.numba" in out

    def test_backendless_baseline_ignores_current_extras(self):
        fresh = _artifact("throughput")
        for row in fresh["backends"]["c"].values():
            row["speedup"] /= 10
        assert gate.check("throughput", fresh, _edit(fresh, "backends")) == []


class TestSpeedupFloors:
    """Absolute floors on the store-carrying configs hold whatever
    baseline is committed."""

    FLOORED = {"wm_algorithm1": 5.3, "wm_with_heap": 3.0, "awm": 1.6,
               "awm_half_budget": 1.9}

    def test_current_above_floors_passes(self):
        doc = _artifact("throughput")
        for name, floor in self.FLOORED.items():
            doc[name]["speedup"] = floor  # at the floor passes
        assert gate.check("throughput", doc, doc) == []

    def test_below_floor_fails_even_if_baseline_agrees(self):
        fresh, base = _both("throughput", "wm_with_heap.speedup", 1.9)
        failures = gate.check("throughput", fresh, base)
        assert failures == ["wm_with_heap.speedup: 1.9 below the 3 floor"]

    def test_missing_floor_config_fails(self):
        fresh, base = _both("throughput", "awm_half_budget")
        failures = gate.check("throughput", fresh, base)
        assert _fails(failures, "awm_half_budget.speedup", "missing")

    def test_default_floors_cover_the_store_configs(self):
        paths = _policy()["throughput"]["paths"]
        for name in ("wm_with_heap", "awm", "awm_half_budget"):
            assert "floor" in paths[f"{name}.speedup"]


class TestMainEntry:
    def test_missing_current_file_fails_the_gate(self, tmp_path, capsys):
        # A crashed benchmark must not leave the gate green.
        code = gate.main(["throughput", str(tmp_path / "never_written.json"),
                          "--baseline", str(ROOT / "BENCH_throughput.json")])
        assert code == 1
        assert "ERROR" in capsys.readouterr().err

    def test_workload_size_mismatch_warns(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.json"
        doc = _artifact("throughput")
        fresh.write_text(json.dumps(_edit(doc, "workload.n_examples", 2000)))
        assert gate.main(["throughput", str(fresh)]) == 0
        assert "workload.n_examples differs" in capsys.readouterr().out

    def test_missing_baseline_is_a_hard_error(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text("{}")
        code = gate.main(["throughput", str(current),
                          "--baseline", str(tmp_path / "no_baseline.json")])
        assert code == 2
        assert "ERROR" in capsys.readouterr().err

    def test_baseline_defaults_to_the_committed_artifact(self, tmp_path):
        # Under the ceiling, but above the committed peak / 0.7.
        doc = _artifact("alloc")
        peak = doc["wm_algorithm1"]["peak_transient_bytes"] / 0.7 + 1
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(doc))
        assert gate.main(["alloc", str(fresh)]) == 0
        doc["wm_algorithm1"]["peak_transient_bytes"] = peak
        fresh.write_text(json.dumps(doc))
        assert gate.main(["alloc", str(fresh)]) == 1

    @pytest.mark.parametrize("option", [["--threshold", "0.3"],
                                        ["--strict-eps"], ["--no-floors"],
                                        ["--kind", "alloc"]])
    def test_takes_only_kind_fresh_file_and_baseline(self, option):
        with pytest.raises(SystemExit) as exc:
            gate.main(["alloc", str(ROOT / "BENCH_alloc.json"), *option])
        assert exc.value.code == 2


class TestParallelGate:
    def test_monotone_and_stable_passes(self):
        doc = _artifact("parallel")
        assert gate.check("parallel", doc, doc) == []

    def test_non_monotone_current_warns_but_passes(self, capsys):
        # Fresh-run monotonicity is timing-sensitive on shared runners:
        # warn, gate only the speedup ratio.
        base = _artifact("parallel")
        for fresh in (_edit(base, "monotone_1_to_4_workers", False),
                      _edit(base, "monotone_1_to_4_workers")):
            assert gate.check("parallel", fresh, base) == []
            assert "WARNING" in capsys.readouterr().out

    def test_speedup_collapse_fails(self):
        base = _artifact("parallel")
        fresh = _edit(base, "speedup_4_workers",
                      base["speedup_4_workers"] * 0.6)
        assert _fails(gate.check("parallel", fresh, base),
                      "speedup_4_workers")

    def test_schema_less_parallel_baseline_fails(self):
        failures = gate.check("parallel", _artifact("parallel"), {})
        assert _fails(failures, "speedup_4_workers", "baseline")


class TestQueryGate:
    def test_identical_runs_pass(self):
        doc = _artifact("query")
        assert gate.check("query", doc, doc) == []

    def test_ratio_regression_fails(self):
        # 8.0 -> 4.0 stays above the 3.0 floor but is a >30% loss.
        base = _edit(_artifact("query"), "wm.predict_speedup", 8.0)
        fresh = _edit(base, "wm.predict_speedup", 4.0)
        failures = gate.check("query", fresh, base)
        assert failures == [
            "wm.predict_speedup: 8 -> 4 (-50.0%, allowed -30%)"
        ]

    def test_floor_violation_fails_even_with_agreeing_baseline(self):
        low = _edit(_artifact("query"), "wm.query_speedup", 5.0)
        assert _fails(gate.check("query", low, low), "wm.query_speedup",
                      "floor")

    def test_empty_current_cannot_pass_vacuously(self):
        assert gate.check("query", {"workload": {}}, _artifact("query"))


class TestAllocGate:
    def test_identical_runs_pass(self):
        doc = _artifact("alloc")
        assert gate.check("alloc", doc, doc) == []

    def test_reduction_below_floor_fails(self):
        # A peak above the byte ceiling fails even when the committed
        # baseline agrees (the ceiling holds whatever is committed).
        path = "wm_algorithm1.peak_transient_bytes"
        ceiling = _policy()["alloc"]["paths"][path]["ceiling"]
        fresh, base = _both("alloc", path, ceiling + 1)
        assert _fails(gate.check("alloc", fresh, base), path, "ceiling")
        fresh, base = _both("alloc", path, ceiling)
        assert gate.check("alloc", fresh, base) == []
        # Under the ceiling, a peak above committed / 0.7 still fails.
        base = _edit(_artifact("alloc"), path, 10_000)
        assert _fails(gate.check("alloc", _edit(base, path, 14_286), base),
                      path, "0.70")
        assert gate.check("alloc", _edit(base, path, 14_285), base) == []

    def test_missing_config_fails(self):
        assert gate.check("alloc", {"workload": {}}, _artifact("alloc"))


class TestServingGate:
    def test_identical_runs_pass(self):
        doc = _artifact("serving")
        assert gate.check("serving", doc, doc) == []

    def test_ratio_regression_fails(self):
        # 8.0 -> 3.5 stays above the 3x floor but is a >50% collapse.
        base = _edit(_artifact("serving"), "wm.coalescing_speedup", 8.0)
        fresh = _edit(base, "wm.coalescing_speedup", 3.5)
        assert _fails(gate.check("serving", fresh, base),
                      "wm.coalescing_speedup", "-56.2%")

    def test_floor_violation_fails_even_with_agreeing_baseline(self):
        fresh, base = _both("serving", "wm.coalescing_speedup", 2.5)
        assert _fails(gate.check("serving", fresh, base), "floor")

    def test_awm_anti_collapse_floor(self):
        fresh, base = _both("serving", "awm_half_budget.coalescing_speedup",
                            0.5)
        assert _fails(gate.check("serving", fresh, base), "awm_half_budget")

    def test_empty_current_cannot_pass_vacuously(self):
        assert gate.check("serving", {"workload": {}}, _artifact("serving"))

    def test_request_count_mismatch_warns(self, capsys):
        base = _artifact("serving")
        fresh = _edit(base, "workload.n_requests", 400)
        assert gate.check("serving", fresh, base) == []
        assert "n_requests" in capsys.readouterr().out

    def test_default_floors_cover_the_headline_config(self):
        paths = _policy()["serving"]["paths"]
        assert paths["wm.coalescing_speedup"]["floor"] >= 3.0


# ----------------------------------------------------------------------
# Backend-artifact recording (benchmarks/record_backend_artifacts.py)
# ----------------------------------------------------------------------
def _doc(speedup, eps=10_000.0):
    return {
        "workload": {"dataset": "x"},
        "wm_algorithm1": {
            "speedup": speedup,
            "per_example_eps": eps,
            "batched_eps": eps * speedup,
        },
    }


RECORD = SCRIPT.parent / "record_backend_artifacts.py"
spec2 = importlib.util.spec_from_file_location("record_backend", RECORD)
record_backend = importlib.util.module_from_spec(spec2)
sys.modules["record_backend"] = record_backend
spec2.loader.exec_module(record_backend)


class TestRecordBackendArtifacts:
    def _artifact(self):
        return {
            "workload": {"python": "3.12.1", "n_examples": 4000},
            "wm_algorithm1": {"speedup": 6.0, "batched_eps": 50_000.0},
            "backends": {
                "numba": {
                    "wm_algorithm1": {
                        "speedup": 9.0, "batched_eps": 150_000.0
                    }
                }
            },
            "backend_batched_ratio": {
                "numba": {"wm_algorithm1": {"batched": 3.0,
                                            "per_example": 1.4}}
            },
        }

    def test_merges_backend_sections_only(self):
        baseline = _doc(7.0)
        baseline["backends"] = {}
        merged = record_backend.merge_backend_sections(
            baseline, self._artifact()
        )
        assert "numba" in merged["backends"]
        assert merged["backend_batched_ratio"]["numba"][
            "wm_algorithm1"]["batched"] == 3.0
        # The baseline's own numpy rows are untouched.
        assert merged["wm_algorithm1"]["speedup"] == 7.0
        # Provenance travels along.
        meta = merged["backends_meta"]
        assert meta["python"] == "3.12.1"
        assert meta["artifact_numpy_rows"]["wm_algorithm1"][
            "speedup"] == 6.0

    def test_empty_artifact_is_an_error(self):
        import pytest

        with pytest.raises(ValueError):
            record_backend.merge_backend_sections(
                _doc(7.0), {"backends": {}}
            )


class TestPSGate:
    def test_identical_runs_pass(self):
        doc = _artifact("ps")
        assert gate.check("ps", doc, doc) == []

    def test_ratio_below_floor_fails_even_with_agreeing_baseline(self):
        # The byte ratio is machine-independent: the floor binds on the
        # fresh run regardless of what baseline is committed.
        fresh, base = _both("ps", "delta_bytes_ratio", 3.0)
        assert _fails(gate.check("ps", fresh, base), "floor")

    def test_ratio_collapse_vs_baseline_fails(self):
        base = _artifact("ps")
        fresh = _edit(base, "delta_bytes_ratio", 10.0)
        assert _fails(gate.check("ps", fresh, base), "delta_bytes_ratio")

    def test_non_monotone_current_warns_but_passes(self, capsys):
        base = _artifact("ps")
        fresh = _edit(base, "monotone_1_to_4_workers", False)
        assert gate.check("ps", fresh, base) == []
        assert "WARNING" in capsys.readouterr().out

    def test_speedup_collapse_fails(self):
        base = _artifact("ps")
        fresh = _edit(base, "speedup_4_workers", 0.9)
        assert _fails(gate.check("ps", fresh, base), "speedup_4_workers")

    def test_empty_current_cannot_pass_vacuously(self):
        assert gate.check("ps", {"workload": {}}, _artifact("ps"))

    def test_schema_less_ps_baseline_fails(self):
        failures = gate.check("ps", _artifact("ps"), {"workload": {}})
        assert _fails(failures, "baseline")


class TestResilienceGate:
    def test_identical_runs_pass(self):
        doc = _artifact("resilience")
        assert gate.check("resilience", doc, doc) == []

    def test_goodput_below_floor_fails_even_with_agreeing_baseline(self):
        fresh, base = _both("resilience", "goodput_ratio", 0.6)
        assert _fails(gate.check("resilience", fresh, base),
                      "goodput_ratio", "floor")

    def test_goodput_collapse_vs_baseline_fails_above_the_floor(self):
        # 1.9 -> 0.9 stays above the 0.8 floor but is a >50% collapse.
        base = _edit(_artifact("resilience"), "goodput_ratio", 1.9)
        fresh = _edit(base, "goodput_ratio", 0.9)
        assert _fails(gate.check("resilience", fresh, base), "goodput_ratio")

    def test_diverged_recovery_is_never_noise(self):
        # Bit-identity is binary: 0.0 fails whatever the baseline says.
        fresh, base = _both("resilience", "recovery_bit_identical", 0.0)
        assert gate.check("resilience", fresh, base) == [
            "recovery_bit_identical: 0 below the 1 floor"
        ]

    def test_empty_current_cannot_pass_vacuously(self):
        assert gate.check("resilience", {"workload": {}},
                          _artifact("resilience"))


class TestTelemetryGate:
    def test_identical_runs_pass(self):
        doc = _artifact("telemetry")
        assert gate.check("telemetry", doc, doc) == []

    def test_overhead_beyond_contract_fails(self):
        base = _artifact("telemetry")
        fresh = _edit(base, "wm_algorithm1.telemetry_overhead_ratio", 0.90)
        assert _fails(gate.check("telemetry", fresh, base),
                      "telemetry_overhead_ratio", "0.97")

    def test_ratio_at_the_floor_passes(self):
        doc = _artifact("telemetry")
        for row in ("wm_algorithm1", "wm_with_heap"):
            doc[row]["telemetry_overhead_ratio"] = 0.97
        assert gate.check("telemetry", doc, doc) == []

    def test_empty_current_cannot_pass_vacuously(self):
        assert gate.check("telemetry", {"workload": {}},
                          _artifact("telemetry"))

    def test_missing_floor_config_fails(self):
        fresh, base = _both("telemetry", "wm_with_heap")
        assert _fails(gate.check("telemetry", fresh, base), "wm_with_heap")


class TestGatesPolicyFile:
    """benchmarks/gates.json is the whole gate policy."""

    def test_policy_file_exists_and_parses(self):
        assert isinstance(_policy(), dict)

    def test_cli_kinds_cover_exactly_the_policy_sections(self, tmp_path):
        sections = set(_policy()) - {"_comment"}
        assert set(gate.KINDS) == sections
        for kind in sections:
            # A valid kind gets past argument parsing: the missing fresh
            # file then fails the gate (1), not argparse (2).
            assert gate.main([kind, str(tmp_path / "missing.json")]) == 1

    def test_module_constants_are_views_of_the_policy(self):
        # The gate holds no bound of its own: every floor, ceiling and
        # threshold is read from gates.json.
        assert gate.GATES == _policy()
        tree = ast.parse(SCRIPT.read_text())
        numbers = {node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and type(node.value) in (int, float)}
        assert numbers <= {0, 1, 2}

    def test_resilience_recovery_floor_is_binary(self):
        paths = _policy()["resilience"]["paths"]
        assert paths["recovery_bit_identical"] == {"floor": 1.0}

    def test_alloc_ceilings_hold_the_ratio_gates_pass_line(self):
        # The fused-vs-unfused ratio gate (floors 5.0 / 6.0, 30% of the
        # committed 12.09x / 10.74x) passed iff the fused peak stayed
        # under ~112.4 KB / ~159.2 KB on numpy; the ceilings may not
        # be looser than that.
        paths = _policy()["alloc"]["paths"]
        assert paths["wm_algorithm1.peak_transient_bytes"]["ceiling"] <= (
            112_436
        )
        assert paths["wm_with_heap.peak_transient_bytes"]["ceiling"] <= (
            159_157
        )

    def test_telemetry_floor_is_the_three_percent_contract(self):
        floors = [rule["floor"] for rule in
                  _policy()["telemetry"]["paths"].values() if "floor" in rule]
        assert floors == [0.97, 0.97]

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            gate.main(["nonsense", "x"])
        assert exc.value.code == 2

    def test_bounds_and_thresholds(self):
        policy = _policy()
        assert {kind: policy[kind]["max_regression"]
                for kind in gate.KINDS} == {
            "alloc": 0.30, "parallel": 0.30, "ps": 0.40, "publish": 0.40,
            "query": 0.30, "resilience": 0.50, "serving": 0.50,
            "telemetry": 0.30, "throughput": 0.30,
        }
        bounds = {(kind, path, bound): rule[bound]
                  for kind in gate.KINDS
                  for path, rule in policy[kind]["paths"].items()
                  for bound in ("floor", "ceiling") if bound in rule}
        assert bounds == {
            ("throughput", "wm_algorithm1.speedup", "floor"): 5.3,
            ("throughput", "wm_with_heap.speedup", "floor"): 3.0,
            ("throughput", "awm.speedup", "floor"): 1.6,
            ("throughput", "awm_half_budget.speedup", "floor"): 1.9,
            ("query", "wm.predict_speedup", "floor"): 3.0,
            ("query", "wm.query_speedup", "floor"): 40.0,
            ("query", "awm_half_budget.predict_speedup", "floor"): 1.3,
            ("query", "awm_half_budget.query_speedup", "floor"): 15.0,
            ("query", "hash.predict_speedup", "floor"): 3.0,
            ("query", "hash.query_speedup", "floor"): 40.0,
            ("alloc", "wm_algorithm1.peak_transient_bytes", "ceiling"):
                112_000,
            ("alloc", "wm_with_heap.peak_transient_bytes", "ceiling"):
                159_000,
            ("publish", "incremental_speedup", "floor"): 5.0,
            ("ps", "delta_bytes_ratio", "floor"): 5.0,
            ("resilience", "goodput_ratio", "floor"): 0.8,
            ("resilience", "recovery_bit_identical", "floor"): 1.0,
            ("serving", "wm.coalescing_speedup", "floor"): 3.0,
            ("serving", "awm_half_budget.coalescing_speedup", "floor"): 0.8,
            ("telemetry", "wm_algorithm1.telemetry_overhead_ratio",
             "floor"): 0.97,
            ("telemetry", "wm_with_heap.telemetry_overhead_ratio",
             "floor"): 0.97,
        }


class TestRules:
    """Each rule type of gates.json once, on the committed artifacts."""

    @pytest.mark.parametrize("kind", gate.KINDS)
    def test_committed_artifact_passes_and_every_path_matches(self, kind):
        doc = _artifact(kind)
        assert gate.check(kind, doc, doc) == []
        for pattern in _policy()[kind]["paths"]:
            if "<" in pattern:
                continue  # optional rows: absent on hosts without them
            segments = pattern.split(".")
            assert list(gate.expand(doc, segments)), pattern

    def test_relative_higher_bound(self):
        # publish allows a 40% loss: 0.61x passes, 0.59x fails.
        base = _edit(_artifact("publish"), "incremental_speedup", 100.0)
        for factor, ok in ((0.61, True), (0.59, False)):
            fresh = _edit(base, "incremental_speedup", 100.0 * factor)
            assert (gate.check("publish", fresh, base) == []) is ok

    def test_relative_lower_skips_a_zero_baseline(self):
        path = "wm_algorithm1.peak_transient_bytes"
        base = _edit(_artifact("alloc"), path, 0)
        assert gate.check("alloc", _artifact("alloc"), base) == []

    def test_a_baseline_that_cannot_vouch_fails(self):
        # A gated ratio whose baseline is 0, negative or missing.
        fresh = _artifact("query")
        for value in (0, -1.0, _DROP):
            base = _edit(fresh, "wm.hot_over_cold", value)
            if value is _DROP:
                base = _edit(base, "hash.hot_over_cold")
                base = _edit(base, "awm_half_budget.hot_over_cold")
            assert _fails(gate.check("query", fresh, base), "hot_over_cold")

    def test_a_key_dropped_from_a_fresh_row_fails(self):
        base = _artifact("query")
        failures = gate.check("query", _edit(base, "wm.hot_over_cold"), base)
        assert failures == ["wm.hot_over_cold: missing from the fresh run"]
        base = _artifact("throughput")
        path = "backends.c.awm.speedup_update_only"
        failures = gate.check("throughput", _edit(base, path), base)
        assert failures == [f"{path}: missing from the fresh run"]

    def test_a_nan_never_passes(self):
        fresh, base = _both("publish", "incremental_speedup", float("nan"))
        assert len(gate.check("publish", fresh, base)) == 2
