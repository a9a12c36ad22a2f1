"""Fold a per-backend benchmark run into the committed baseline.

``benchmarks/bench_update_throughput.py --backends numpy,c`` measures
every configuration under each kernel backend and writes the compiled
rows under ``backends`` with the compiled-vs-numpy ratios under
``backend_batched_ratio``.  The committed ``BENCH_throughput.json``
numpy rows come from their own run, so this script merges only the
backend sections of such a run (the *artifact*) into the baseline, and
the compiled ratios become part of the tracked trend.

Only the backend sections move.  The baseline's own numpy rows (the
schema the regression gate checks) are never touched: the two runs are
separate processes, possibly on different machines, so mixing their
absolute rows would be meaningless — but each backend section's
*ratios* were computed against the artifact run's own numpy rows
in-process, and those rows are recorded alongside under
``backends_meta`` so the provenance is explicit.

Usage::

    PYTHONPATH=src python benchmarks/bench_update_throughput.py \
        --examples 4000 --backends numpy,c \
        --out BENCH_throughput_backends.json
    python benchmarks/record_backend_artifacts.py \
        --artifact BENCH_throughput_backends.json \
        [--baseline BENCH_throughput.json] [--dry-run]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def merge_backend_sections(baseline: dict, artifact: dict) -> dict:
    """Return a copy of ``baseline`` carrying ``artifact``'s backend
    sections (plus provenance); raises ValueError on empty artifacts."""
    backends = artifact.get("backends") or {}
    ratios = artifact.get("backend_batched_ratio") or {}
    if not backends:
        raise ValueError(
            "artifact carries no extra-backend rows ('backends' is "
            "empty) — ran without the c backend? nothing to record"
        )
    merged = dict(baseline)
    merged["backends"] = backends
    merged["backend_batched_ratio"] = ratios
    workload = artifact.get("workload") or {}
    merged["backends_meta"] = {
        "source": "separate --backends run (not the process of the "
                  "numpy rows above; ratios are in-process)",
        "python": workload.get("python"),
        "n_examples": workload.get("n_examples"),
        "artifact_numpy_rows": {
            name: row
            for name, row in artifact.items()
            if isinstance(row, dict) and "speedup" in row
        },
    }
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = Path(__file__).resolve().parent.parent
    parser.add_argument("--artifact", required=True,
                        help="BENCH_throughput_backends.json from CI")
    parser.add_argument(
        "--baseline", default=str(root / "BENCH_throughput.json")
    )
    parser.add_argument("--dry-run", action="store_true",
                        help="print the merged backend names, write "
                             "nothing")
    args = parser.parse_args(argv)

    with open(args.artifact) as fh:
        artifact = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    merged = merge_backend_sections(baseline, artifact)
    names = sorted(merged["backends"])
    print(f"recording backend sections: {', '.join(names)}")
    for name in names:
        ratios = (merged["backend_batched_ratio"] or {}).get(name, {})
        for config, ratio in sorted(ratios.items()):
            print(f"  {name}:{config} batched ratio vs numpy: "
                  f"{ratio.get('batched', float('nan')):.2f}x")
    if args.dry_run:
        print("dry run: baseline not modified")
        return 0
    Path(args.baseline).write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
