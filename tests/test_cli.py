"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.data.datasets import ALL_PRESETS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.dataset == "rcv1"
        assert args.budget_kb == 8
        assert args.lambda_ == 1e-6

    def test_theory_requires_d(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["theory"])


class TestCommands:
    def test_configs_output(self, capsys):
        assert main(["configs", "--budget-kb", "8"]) == 0
        out = capsys.readouterr().out
        assert "|S|=512" in out
        assert "depth=1" in out
        assert "search space" in out

    def test_theory_output(self, capsys):
        code = main(["theory", "--d", "10000", "--epsilon", "0.3",
                     "--lambda", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Theorem 1 sizing" in out
        assert "Theorem 2 minimum stream length" in out

    def test_compare_small_run(self, capsys):
        code = main([
            "compare", "--dataset", "rcv1", "--budget-kb", "4",
            "--examples", "400", "--k", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "unconstrained LR" in out
        assert "AWM" in out and "Hash" in out

    def test_compare_prints_the_label_prior(self, capsys):
        # At the defaults 91% of the labels are +1 and every method,
        # the unconstrained LR included, errs on 0.0892 of the stream:
        # the majority-class line names that number as the label prior.
        code = main(["compare", "--examples", "400", "--k", "16"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "backend=" in lines[0]  # CI greps the first line
        labels = [ex.label for ex in
                  ALL_PRESETS["rcv1_like"](seed=0).stream.materialize(400)]
        negative = labels.count(-1)
        assert 0 < negative < 400 - negative
        want = (f"majority class:   error {negative / 400:.4f} "
                f"({1 - negative / 400:.1%} positive)")
        at = lines.index(want)
        assert lines[at - 1].startswith("unconstrained LR: error ")

    def test_compare_rejects_unknown_dataset(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["compare", "--dataset", "nonsense"])


class TestParallelCommand:
    def test_parallel_classify_single_worker(self, capsys):
        # workers=1 stays in-process: fast, no pool spawning in CI.
        code = main([
            "parallel", "--workers", "1", "--examples", "600",
            "--batch-size", "128", "--k", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "single-stream" in out
        assert "top-16 overlap" in out
        assert "merged_from=1" in out

    def test_parallel_app_task(self, capsys):
        code = main([
            "parallel", "--workers", "1", "--task", "deltoids",
            "--examples", "800", "--batch-size", "128",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "top deltoids" in out
        assert "merged_from=1" in out

    def test_parallel_rejects_bad_method(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["parallel", "--method", "nonsense"])


class TestPSCommand:
    def test_ps_smoke(self, capsys):
        code = main([
            "ps", "--examples", "1200", "--workers", "3",
            "--staleness", "1", "--sync-every", "128",
            "--batch-size", "64", "--k", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pushes:" in out
        assert "fewer bytes shipped" in out
        assert "staleness: mean" in out
        assert "top-8 recovered weights" in out

    def test_ps_parser_defaults(self):
        args = build_parser().parse_args(["ps"])
        assert args.method == "wm"
        assert args.staleness == 1
        assert args.publish_every == 1

    def test_ps_rejects_awm(self):
        # Delta sync is WM-only: the AWM active set feeds back into
        # training and cannot be merged as a table delta.
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["ps", "--method", "awm"])


class TestServingCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.method == "wm"
        assert args.latency_budget_ms == 1.0
        assert args.max_batch == 64
        assert args.publish_every == 2

    def test_serve_smoke(self, capsys):
        code = main([
            "serve", "--examples", "1200", "--readers", "2",
            "--reads", "8", "--batch-size", "128",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "consistency check: PASS" in out
        assert "snapshots published" in out
        assert "coalescer" in out

    def test_loadgen_closed_smoke(self, capsys):
        code = main([
            "loadgen", "--mode", "closed", "--requests", "120",
            "--examples", "1200", "--clients", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "coalesced" in out
        assert "req/s" in out

    def test_loadgen_serial_smoke(self, capsys):
        code = main([
            "loadgen", "--mode", "closed", "--requests", "80",
            "--examples", "1200", "--clients", "4", "--serial",
        ])
        assert code == 0
        assert "serial-scalar" in capsys.readouterr().out

    def test_loadgen_open_smoke(self, capsys):
        code = main([
            "loadgen", "--mode", "open", "--requests", "80",
            "--rps", "4000", "--examples", "1200",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "latency p50" in out and "p99" in out
