"""The CI trend-tracking script's comparison logic (PR 2 satellite)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SCRIPT = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_throughput_regression.py"
)
spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
check_regression = importlib.util.module_from_spec(spec)
sys.modules["check_regression"] = check_regression
spec.loader.exec_module(check_regression)


def _doc(speedup, eps=10_000.0):
    return {
        "workload": {"dataset": "x"},
        "wm_algorithm1": {
            "speedup": speedup,
            "per_example_eps": eps,
            "batched_eps": eps * speedup,
        },
    }


class TestThroughputGate:
    def test_identical_runs_pass(self):
        doc = _doc(5.0)
        assert check_regression.check_throughput(doc, doc, 0.30, False) == []

    def test_ratio_regression_beyond_threshold_fails(self):
        failures = check_regression.check_throughput(
            _doc(3.0), _doc(5.0), 0.30, False
        )
        assert any("speedup" in f for f in failures)

    def test_ratio_regression_within_threshold_passes(self):
        assert (
            check_regression.check_throughput(
                _doc(4.0), _doc(5.0), 0.30, False
            )
            == []
        )

    def test_absolute_eps_not_gated_by_default(self):
        # 10x slower machine, same speedup ratio: must pass.
        assert (
            check_regression.check_throughput(
                _doc(5.0, eps=1_000.0), _doc(5.0, eps=10_000.0), 0.30, False
            )
            == []
        )

    def test_strict_eps_gates_absolute_throughput(self):
        failures = check_regression.check_throughput(
            _doc(5.0, eps=1_000.0), _doc(5.0, eps=10_000.0), 0.30, True
        )
        assert any("per_example_eps" in f for f in failures)

    def test_schema_less_baseline_cannot_pass_vacuously(self):
        empty = {"workload": {}}
        failures = check_regression.check_throughput(
            empty, empty, 0.30, False
        )
        assert any("no gated metrics" in f for f in failures)

    def test_missing_config_fails(self):
        current = _doc(5.0)
        baseline = _doc(5.0)
        baseline["awm"] = {"speedup": 1.4}
        failures = check_regression.check_throughput(
            current, baseline, 0.30, False
        )
        assert any("missing" in f for f in failures)


class TestBackendSections:
    """The kernel-backend dimension added by PR 4."""

    def _doc_with_numba(self, top_speedup, numba_speedup):
        doc = _doc(top_speedup)
        doc["backends"] = {
            "numba": {"wm_algorithm1": {"speedup": numba_speedup}}
        }
        return doc

    def test_compiled_rows_gated_when_both_sides_have_them(self):
        failures = check_regression.check_throughput(
            self._doc_with_numba(5.0, 2.0),
            self._doc_with_numba(5.0, 5.0),
            0.30,
            False,
        )
        assert any("numba:wm_algorithm1.speedup" in f for f in failures)

    def test_compiled_rows_matching_pass(self):
        doc = self._doc_with_numba(5.0, 5.0)
        assert check_regression.check_throughput(doc, doc, 0.30, False) == []

    def test_numba_unavailable_skips_with_notice_not_failure(self, capsys):
        baseline = self._doc_with_numba(5.0, 5.0)
        current = _doc(5.0)  # no "backends" section: numba-less host
        failures = check_regression.check_throughput(
            current, baseline, 0.30, False
        )
        assert failures == []
        out = capsys.readouterr().out
        assert "NOTICE" in out and "numba" in out

    def test_backendless_baseline_ignores_current_extras(self):
        # A fresh run on a numba host vs an older numpy-only baseline:
        # the extra compiled rows are simply not compared.
        baseline = _doc(5.0)
        current = self._doc_with_numba(5.0, 9.0)
        assert (
            check_regression.check_throughput(
                current, baseline, 0.30, False
            )
            == []
        )


class TestSpeedupFloors:
    """Absolute floors on the store-carrying configs (PR 3 satellite):
    the vectorized top-K layer's batched advantage is gated even when
    the committed baseline itself is refreshed."""

    def _floors(self):
        return {"wm_with_heap": 2.5, "awm": 1.6}

    def test_current_above_floors_passes(self):
        doc = _doc(5.0)
        doc["wm_with_heap"] = {"speedup": 4.0}
        doc["awm"] = {"speedup": 2.4}
        assert check_regression.check_floors(doc, self._floors()) == []

    def test_below_floor_fails_even_if_baseline_agrees(self):
        doc = _doc(5.0)
        doc["wm_with_heap"] = {"speedup": 1.9}  # back to pre-store era
        doc["awm"] = {"speedup": 2.4}
        failures = check_regression.check_floors(doc, self._floors())
        assert any("wm_with_heap" in f and "floor" in f for f in failures)
        # The relative gate is happy with an equally-bad baseline; the
        # floor is what refuses the ratchet slipping.
        assert check_regression.check_throughput(doc, doc, 0.30, False) == []

    def test_missing_floor_config_fails(self):
        failures = check_regression.check_floors(_doc(5.0), self._floors())
        assert any("missing" in f for f in failures)

    def test_default_floors_cover_the_store_configs(self):
        assert {"wm_with_heap", "awm", "awm_half_budget"} <= set(
            check_regression.SPEEDUP_FLOORS
        )


class TestMainEntry:
    def test_missing_current_file_fails_the_gate(self, tmp_path, capsys):
        # A crashed benchmark must not leave the gate green.
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{}")
        code = check_regression.main([
            "--current", str(tmp_path / "never_written.json"),
            "--baseline", str(baseline),
        ])
        assert code == 1
        assert "ERROR" in capsys.readouterr().err

    def test_workload_size_mismatch_warns(self, tmp_path, capsys):
        import json

        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        doc = _doc(5.0)
        doc["workload"] = {"n_examples": 2000}
        current.write_text(json.dumps(doc))
        doc["workload"] = {"n_examples": 4000}
        baseline.write_text(json.dumps(doc))
        code = check_regression.main([
            "--current", str(current), "--baseline", str(baseline),
            "--no-floors",  # minimal doc lacks the floor-gated configs
        ])
        assert code == 0
        assert "workload sizes differ" in capsys.readouterr().out

    def test_missing_baseline_is_a_hard_error(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        current.write_text("{}")
        code = check_regression.main([
            "--current", str(current),
            "--baseline", str(tmp_path / "no_baseline.json"),
        ])
        assert code == 2
        assert "ERROR" in capsys.readouterr().err


class TestParallelGate:
    def test_monotone_and_stable_passes(self):
        doc = {"monotone_1_to_4_workers": True, "speedup_4_workers": 2.8}
        assert check_regression.check_parallel(doc, doc, 0.30) == []

    def test_non_monotone_current_warns_but_passes(self, capsys):
        # Fresh-run monotonicity is timing-sensitive on shared runners:
        # warn, gate only the machine-independent speedup ratio.
        bad = {"monotone_1_to_4_workers": False, "speedup_4_workers": 2.8}
        good = {"monotone_1_to_4_workers": True, "speedup_4_workers": 2.8}
        assert check_regression.check_parallel(bad, good, 0.30) == []
        assert "WARNING" in capsys.readouterr().out

    def test_speedup_collapse_fails(self):
        curr = {"monotone_1_to_4_workers": True, "speedup_4_workers": 1.1}
        base = {"monotone_1_to_4_workers": True, "speedup_4_workers": 2.8}
        assert check_regression.check_parallel(curr, base, 0.30)

    def test_schema_less_parallel_baseline_fails(self):
        curr = {"monotone_1_to_4_workers": True, "speedup_4_workers": 2.8}
        assert check_regression.check_parallel(curr, {}, 0.30)


# ----------------------------------------------------------------------
# Query-serving gate (--kind query, PR 5)
# ----------------------------------------------------------------------
def _query_doc(predict=5.0, query=100.0, hot=2.0):
    row = {
        "predict_speedup": predict,
        "query_speedup": query,
        "hot_over_cold": hot,
        "predict_scalar_eps": 20_000.0,
        "predict_batch_eps": 20_000.0 * predict,
    }
    return {
        "workload": {"dataset": "x"},
        "wm": dict(row),
        "awm_half_budget": dict(row),
        "hash": dict(row),
    }


class TestQueryGate:
    def test_identical_runs_pass(self):
        doc = _query_doc()
        assert check_regression.check_query(doc, doc, 0.30) == []

    def test_ratio_regression_fails(self):
        failures = check_regression.check_query(
            _query_doc(predict=2.0, query=100.0), _query_doc(), 0.30
        )
        assert any("predict_speedup" in f for f in failures)

    def test_floor_violation_fails_even_with_agreeing_baseline(self):
        low = _query_doc(predict=1.1, query=5.0)
        failures = check_regression.check_query(low, low, 0.30)
        assert any("floor" in f for f in failures)

    def test_empty_current_cannot_pass_vacuously(self):
        failures = check_regression.check_query(
            {"workload": {}}, _query_doc(), 0.30
        )
        assert failures


# ----------------------------------------------------------------------
# Allocation gate (--kind alloc, PR 5)
# ----------------------------------------------------------------------
def _alloc_doc(headline=38_000, heap=109_000):
    return {
        "workload": {"dataset": "x"},
        "wm_algorithm1": {"peak_transient_bytes": headline},
        "wm_with_heap": {"peak_transient_bytes": heap},
    }


class TestAllocGate:
    def test_identical_runs_pass(self):
        doc = _alloc_doc()
        assert check_regression.check_alloc(doc, doc, 0.30) == []

    def test_reduction_below_floor_fails(self):
        # A peak above the byte ceiling fails even when the committed
        # baseline agrees (the ceiling holds whatever is committed).
        ceiling = check_regression.ALLOC_CEILINGS["wm_algorithm1"]
        doc = _alloc_doc(headline=ceiling + 1)
        failures = check_regression.check_alloc(doc, doc, 0.30)
        assert any("wm_algorithm1" in f and "ceiling" in f
                   for f in failures)
        at_ceiling = _alloc_doc(headline=ceiling)
        assert check_regression.check_alloc(at_ceiling, at_ceiling,
                                            0.30) == []
        # Under the ceiling, a peak above committed / 0.7 still fails.
        failures = check_regression.check_alloc(
            _alloc_doc(headline=20_000), _alloc_doc(headline=10_000), 0.30
        )
        assert any("wm_algorithm1" in f for f in failures)
        assert check_regression.check_alloc(
            _alloc_doc(headline=14_285), _alloc_doc(headline=10_000), 0.30
        ) == []

    def test_missing_config_fails(self):
        failures = check_regression.check_alloc(
            {"workload": {}}, _alloc_doc(), 0.30
        )
        assert failures


# ----------------------------------------------------------------------
# Serving-coalescer gate (--kind serving, PR 6)
# ----------------------------------------------------------------------
def _serving_doc(wm=5.0, awm=1.7, n_requests=2000):
    return {
        "workload": {"dataset": "x", "n_requests": n_requests},
        "wm": {"coalescing_speedup": wm, "serial_rps": 2_500.0},
        "awm_half_budget": {"coalescing_speedup": awm},
        "coalescing_speedup": wm,
    }


class TestServingGate:
    def test_identical_runs_pass(self):
        doc = _serving_doc()
        assert check_regression.check_serving(doc, doc, 0.30) == []

    def test_ratio_regression_fails(self):
        # 5.0 -> 3.2 stays above the 3x floor but is a >30% collapse.
        failures = check_regression.check_serving(
            _serving_doc(wm=3.2), _serving_doc(wm=5.0), 0.30
        )
        assert any("wm.coalescing_speedup" in f for f in failures)

    def test_floor_violation_fails_even_with_agreeing_baseline(self):
        low = _serving_doc(wm=2.5)
        failures = check_regression.check_serving(low, low, 0.30)
        assert any("floor" in f for f in failures)

    def test_awm_anti_collapse_floor(self):
        low = _serving_doc(awm=0.5)
        failures = check_regression.check_serving(low, low, 0.30)
        assert any("awm_half_budget" in f for f in failures)

    def test_empty_current_cannot_pass_vacuously(self):
        failures = check_regression.check_serving(
            {"workload": {}}, _serving_doc(), 0.30
        )
        assert failures

    def test_request_count_mismatch_warns(self, capsys):
        assert (
            check_regression.check_serving(
                _serving_doc(n_requests=400), _serving_doc(), 0.50
            )
            == []
        )
        assert "n_requests" in capsys.readouterr().out

    def test_default_floors_cover_the_headline_config(self):
        assert "wm" in check_regression.SERVING_FLOORS
        assert check_regression.SERVING_FLOORS["wm"]["coalescing_speedup"] >= 3.0


# ----------------------------------------------------------------------
# Backend-artifact recording (benchmarks/record_backend_artifacts.py)
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Parameter-server delta-sync gate (--kind ps, PR 9)
# ----------------------------------------------------------------------
def _ps_doc(ratio=45.0, speedup=1.5, monotone=True):
    return {
        "workload": {"sync_every": 16},
        "widths": {
            "1048576": {
                "mean_push_bytes": 180_000.0,
                "full_table_bytes": 8_388_608.0,
                "delta_bytes_ratio": ratio,
                "dirty_fraction_mean": 0.02,
            }
        },
        "delta_bytes_ratio": ratio,
        "monotone_1_to_4_workers": monotone,
        "speedup_4_workers": speedup,
    }


class TestPSGate:
    def test_identical_runs_pass(self):
        doc = _ps_doc()
        assert check_regression.check_ps(doc, doc, 0.30) == []

    def test_ratio_below_floor_fails_even_with_agreeing_baseline(self):
        # The byte ratio is machine-independent: the floor binds on the
        # fresh run regardless of what baseline is committed.
        low = _ps_doc(ratio=3.0)
        failures = check_regression.check_ps(low, low, 0.30)
        assert any("floor" in f for f in failures)

    def test_ratio_collapse_vs_baseline_fails(self):
        failures = check_regression.check_ps(
            _ps_doc(ratio=10.0), _ps_doc(ratio=45.0), 0.30
        )
        assert any("delta_bytes_ratio" in f for f in failures)

    def test_non_monotone_current_warns_but_passes(self, capsys):
        bad = _ps_doc(monotone=False)
        good = _ps_doc(monotone=True)
        assert check_regression.check_ps(bad, good, 0.30) == []
        assert "WARNING" in capsys.readouterr().out

    def test_speedup_collapse_fails(self):
        failures = check_regression.check_ps(
            _ps_doc(speedup=0.9), _ps_doc(speedup=1.5), 0.30
        )
        assert any("speedup_4_workers" in f for f in failures)

    def test_empty_current_cannot_pass_vacuously(self):
        failures = check_regression.check_ps(
            {"workload": {}}, _ps_doc(), 0.30
        )
        assert failures

    def test_schema_less_ps_baseline_fails(self):
        curr = _ps_doc()
        failures = check_regression.check_ps(curr, {"workload": {}}, 0.30)
        assert any("baseline" in f for f in failures)


# ----------------------------------------------------------------------
# Resilience gate (--kind resilience, PR 10)
# ----------------------------------------------------------------------
def _resilience_doc(goodput=1.2, recovered=1.0):
    return {
        "workload": {"n_requests": 2000},
        "overload": {
            "saturation_rps": 9_000.0,
            "offered_rps": 18_000.0,
            "goodput_rps": 9_000.0 * goodput,
            "goodput_ratio": goodput,
            "shed_overload": 150,
            "shed_deadline": 3,
            "admitted_p99_ms": 25.0,
        },
        "recovery": {
            "bit_identical": recovered == 1.0,
            "recovery_bit_identical": recovered,
            "recovery_seconds": 0.0008,
            "crashes": 1,
            "recoveries": 1,
            "faults_fired": 7,
        },
        "goodput_ratio": goodput,
        "recovery_bit_identical": recovered,
    }


class TestResilienceGate:
    def test_identical_runs_pass(self):
        doc = _resilience_doc()
        assert check_regression.check_resilience(doc, doc, 0.30) == []

    def test_goodput_below_floor_fails_even_with_agreeing_baseline(self):
        low = _resilience_doc(goodput=0.6)
        failures = check_regression.check_resilience(low, low, 0.30)
        assert any("goodput_ratio" in f and "floor" in f for f in failures)

    def test_goodput_collapse_vs_baseline_fails_above_the_floor(self):
        # 1.6 -> 0.9 stays above the 0.8 floor but is a >30% collapse.
        failures = check_regression.check_resilience(
            _resilience_doc(goodput=0.9), _resilience_doc(goodput=1.6), 0.30
        )
        assert any("goodput_ratio" in f for f in failures)

    def test_diverged_recovery_is_never_noise(self):
        # bit-identity is binary: a 0.0 fails regardless of baseline.
        bad = _resilience_doc(recovered=0.0)
        failures = check_regression.check_resilience(bad, bad, 0.99)
        assert any("recovery_bit_identical" in f for f in failures)
        assert any("diverged" in f for f in failures)

    def test_empty_current_cannot_pass_vacuously(self):
        failures = check_regression.check_resilience(
            {"workload": {}}, _resilience_doc(), 0.30
        )
        assert failures


def _telemetry_doc(wm=0.995, heap=0.99):
    return {
        "workload": {"dataset": "x"},
        "wm_algorithm1": {"telemetry_overhead_ratio": wm},
        "wm_with_heap": {"telemetry_overhead_ratio": heap},
    }


class TestTelemetryGate:
    def test_identical_runs_pass(self):
        doc = _telemetry_doc()
        assert check_regression.check_telemetry(doc, doc, 0.30) == []

    def test_overhead_beyond_contract_fails(self):
        failures = check_regression.check_telemetry(
            _telemetry_doc(wm=0.90), _telemetry_doc(), 0.30
        )
        assert any("telemetry_overhead_ratio" in f for f in failures)
        assert any("0.97" in f for f in failures)

    def test_ratio_at_the_floor_passes(self):
        doc = _telemetry_doc(wm=0.97, heap=0.97)
        assert check_regression.check_telemetry(doc, doc, 0.30) == []

    def test_empty_current_cannot_pass_vacuously(self):
        failures = check_regression.check_telemetry(
            {"workload": {}}, _telemetry_doc(), 0.30
        )
        assert failures

    def test_missing_floor_config_fails(self):
        doc = _telemetry_doc()
        del doc["wm_with_heap"]
        failures = check_regression.check_telemetry(doc, doc, 0.30)
        assert any("wm_with_heap" in f for f in failures)


class TestGatesPolicyFile:
    """benchmarks/gates.json is THE gate policy; the CLI must agree."""

    def _policy(self):
        import json

        return json.loads(check_regression.GATES_PATH.read_text())

    def test_policy_file_exists_and_parses(self):
        policy = self._policy()
        assert isinstance(policy, dict)

    def test_cli_kinds_cover_exactly_the_policy_sections(self):
        policy = self._policy()
        sections = set(policy) - {"_comment"}
        assert set(check_regression.KINDS) == sections
        # The CLI must accept every policy section as a --kind choice.
        for kind in sections:
            rc_args = ["--current", "x", "--kind", kind]
            # parse_args would exit on invalid choices before touching
            # the filesystem; valid choices proceed past parsing (the
            # missing file then returns 1, not an argparse error).
            assert check_regression.main(rc_args) == 1

    def test_module_constants_are_views_of_the_policy(self):
        policy = self._policy()
        assert check_regression.SPEEDUP_FLOORS == (
            policy["throughput"]["floors"]
        )
        assert check_regression.QUERY_FLOORS == policy["query"]["floors"]
        assert check_regression.ALLOC_CEILINGS == (
            policy["alloc"]["ceilings"]
        )
        assert check_regression.SERVING_FLOORS == (
            policy["serving"]["floors"]
        )
        assert check_regression.TELEMETRY_FLOORS == (
            policy["telemetry"]["floors"]
        )
        assert check_regression.PUBLISH_FLOORS == (
            policy["publish"]["floors"]
        )
        assert check_regression.PS_FLOORS == policy["ps"]["floors"]
        assert check_regression.RESILIENCE_FLOORS == (
            policy["resilience"]["floors"]
        )

    def test_resilience_recovery_floor_is_binary(self):
        policy = self._policy()
        floors = policy["resilience"]["floors"]
        assert floors["recovery_bit_identical"] == 1.0

    def test_alloc_ceilings_hold_the_ratio_gates_pass_line(self):
        # The fused-vs-unfused ratio gate (floors 5.0 / 6.0, 30% of the
        # committed 12.09x / 10.74x) passed iff the fused peak stayed
        # under ~112.4 KB / ~159.2 KB on numpy; the ceilings may not
        # be looser than that.
        ceilings = self._policy()["alloc"]["ceilings"]
        assert ceilings["wm_algorithm1"] <= 112_436
        assert ceilings["wm_with_heap"] <= 159_157

    def test_telemetry_floor_is_the_three_percent_contract(self):
        policy = self._policy()
        for row in policy["telemetry"]["floors"].values():
            assert row["telemetry_overhead_ratio"] == 0.97

    def test_unknown_kind_is_rejected(self):
        import pytest

        with pytest.raises(SystemExit) as exc:
            check_regression.main(["--current", "x", "--kind", "nonsense"])
        assert exc.value.code == 2
