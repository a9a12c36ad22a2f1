"""End-to-end benchmark: one command, one workload, one JSON result.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload train_serve --seed 1 --seconds 30 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``; why each
workload exists is in ``workloads.WHY``.  Every run generates its
inputs from ``--seed``, runs the workload in a fresh interpreter
(``workloads.py``), checks the outputs, and prints as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then traced (each in its own process),
and reports the per-layer metrics of the traced run plus
``trace_overhead`` (traced wall over untraced wall).  The line before
the result carries provenance and the raw values behind each figure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Wall budget for all of a run's child processes together (one untraced
#: and at most one traced child); a run must end within 180 s.
DEADLINE_S = 170


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(args, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"workload process exited {proc.returncode} without a result:\n"
            f"{proc.stderr[-4000:]}")
    out = json.loads(lines[-1])
    failed = [name for name, ok in out["checks"].items() if not ok]
    if proc.returncode != 0 or failed:
        raise RuntimeError(
            f"workload process exited {proc.returncode}; failed checks: "
            f"{failed}\n{proc.stderr[-4000:]}")
    return out


def provenance(args, child: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    import numpy

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": child["backend"],
        "pinned_cpu": child["cpu"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("e2ebench: no src/repro next to the benchmark; run it from "
              "a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        plain = run_child(args, 0, deadline)
        traced = run_child(args, 1, deadline) if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1

    if traced is None:
        wanted, values = spec["end_to_end"], plain["metrics"]
    else:
        wanted = spec["per_layer"]
        values = dict(traced["layer"])
        values["trace_overhead"] = traced["wall_s"] / plain["wall_s"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"e2ebench: workload did not report {missing}", file=sys.stderr)
        return 1
    runs = [r for r in (plain, traced) if r is not None]
    print(json.dumps({
        "provenance": provenance(args, plain),
        "raw": [{"trace": i, "wall_s": r["wall_s"], "raw": r["raw"],
                 "checks": r["checks"], "metrics": r["metrics"],
                 "layer": r["layer"] if i else None}
                for i, r in enumerate(runs)],
    }))
    print(json.dumps({
        "correct": True,
        "attempted": sum(int(r["attempted"]) for r in runs),
        "failed": sum(int(r["failed"]) for r in runs),
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
