"""CI gate: check a fresh benchmark run against its committed baseline.

Run::

    PYTHONPATH=src python benchmarks/bench_publish.py --quick \
        --out /tmp/fresh.json
    python benchmarks/gate.py publish /tmp/fresh.json

The baseline defaults to ``BENCH_<KIND>.json`` at the repository root.
Every rule lives in ``benchmarks/gates.json``, one section per KIND:

* ``max_regression`` — the largest relative loss a ``relative`` rule
  accepts;
* ``same_workload`` — ``workload`` keys whose difference between the
  two runs prints a WARNING (ratios depend on the workload size);
* ``paths`` — dotted JSON paths, each mapped to any of

  - ``floor``: the fresh value must be at least this;
  - ``ceiling``: the fresh value must be at most this;
  - ``relative: higher``: fails when ``fresh / base - 1 <
    -max_regression``, and when ``base`` is not positive (a baseline
    that cannot vouch for anything);
  - ``relative: lower``: fails when ``fresh > base / (1 -
    max_regression)``, skipped when ``base`` is 0;
  - ``warn``: a message printed when the fresh value is false or
    missing (exit 0).

A ``*`` segment stands for every row the baseline has at that level, and
a pattern with one must match at least one baseline value.  A
``<name>`` segment does the same, except that a row the fresh run lacks
is skipped with a NOTICE: a kernel backend this host cannot build.  A
gated value the fresh run lacks fails.

Exit status: 0 pass, 1 fail (also when the fresh file is missing: the
benchmark crashed before writing it), 2 no committed baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATES = json.loads(Path(__file__).with_name("gates.json").read_text())
KINDS = tuple(sorted(kind for kind in GATES if not kind.startswith("_")))


def lookup(doc, path):
    """The value at ``path`` (a sequence of keys), or None."""
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def expand(doc, pattern, prefix=()):
    """Every concrete path of ``doc`` that matches ``pattern``."""
    if not pattern:
        yield prefix
        return
    if not isinstance(doc, dict):
        return
    head, rest = pattern[0], pattern[1:]
    wild = head == "*" or head.startswith("<")
    for key in sorted(doc) if wild else [head] if head in doc else []:
        yield from expand(doc[key], rest, prefix + (key,))


def is_number(value) -> bool:
    return isinstance(value, (int, float))


def check_value(label, value, base, rule, max_regression) -> list[str]:
    """The failures of one gated value; ``base`` is None without one."""
    if not is_number(value):
        return [f"{label}: missing from the fresh run"]
    failures = []
    if "floor" in rule and not value >= rule["floor"]:
        failures.append(
            f"{label}: {value:g} below the {rule['floor']:g} floor"
        )
    if "ceiling" in rule and not value <= rule["ceiling"]:
        failures.append(
            f"{label}: {value:g} above the {rule['ceiling']:g} ceiling"
        )
    relative = rule.get("relative")
    if relative and not is_number(base):
        failures.append(f"{label}: the baseline has no value to compare")
    elif relative == "higher" and not base > 0:
        failures.append(f"{label}: baseline {base:g} is not positive")
    elif relative == "higher" and not value / base - 1 >= -max_regression:
        failures.append(
            f"{label}: {base:g} -> {value:g} ({value / base - 1:+.1%}, "
            f"allowed -{max_regression:.0%})"
        )
    elif relative == "lower" and base != 0 and not (
        value <= base / (1 - max_regression)
    ):
        failures.append(
            f"{label}: {base:g} -> {value:g} (above the baseline / "
            f"{1 - max_regression:.2f})"
        )
    return failures


def check(kind: str, fresh: dict, baseline: dict) -> list[str]:
    """Gate ``fresh`` against ``baseline`` under the ``kind`` rules.

    Prints warnings and notices; returns the failures (empty = pass).
    """
    section = GATES[kind]
    for key in section["same_workload"]:
        base = lookup(baseline, ("workload", key))
        new = lookup(fresh, ("workload", key))
        if base is not None and new is not None and base != new:
            print(f"WARNING: workload.{key} differs (baseline {base}, fresh "
                  f"{new}); ratios depend on the workload size, so rerun "
                  f"the benchmark at the baseline's size")
    failures: list[str] = []
    skipped: set[str] = set()
    for pattern, rule in section["paths"].items():
        segments = pattern.split(".")
        optional = [i for i, s in enumerate(segments) if s.startswith("<")]
        if optional or "*" in segments:
            paths = list(expand(baseline, segments))
            if not paths and not optional:
                failures.append(f"{pattern}: matches nothing in the baseline")
        else:
            paths = [tuple(segments)]
        for path in paths:
            label = ".".join(path)
            row = path[: optional[0] + 1] if optional else ()
            if optional and lookup(fresh, row) is None:
                name = ".".join(row)
                if name not in skipped:
                    skipped.add(name)
                    print(f"NOTICE: the baseline has {name} but the fresh "
                          f"run does not (unavailable on this host); "
                          f"skipping its rows")
                continue
            value = lookup(fresh, path)
            if "warn" in rule:
                if not value:
                    print(f"WARNING: {label} is {value}: {rule['warn']}")
                continue
            failures += check_value(label, value, lookup(baseline, path),
                                    rule, section["max_regression"])
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("fresh", type=Path, help="the fresh benchmark JSON")
    parser.add_argument("--baseline", type=Path,
                        help="default: BENCH_<KIND>.json at the repo root")
    args = parser.parse_args(argv)
    baseline = args.baseline or ROOT / f"BENCH_{args.kind}.json"
    if not args.fresh.exists():
        # The benchmark steps are '|| true'-guarded in CI, so a crashed
        # benchmark reaches the gate with no JSON; that must fail.
        print(f"ERROR: {args.fresh} does not exist: the benchmark crashed "
              f"before writing it", file=sys.stderr)
        return 1
    if not baseline.exists():
        print(f"ERROR: the committed baseline {baseline} does not exist",
              file=sys.stderr)
        return 2
    failures = check(args.kind, json.loads(args.fresh.read_text()),
                     json.loads(baseline.read_text()))
    if failures:
        print(f"REGRESSION ({len(failures)}):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"{args.kind}: {args.fresh} passes against {baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
