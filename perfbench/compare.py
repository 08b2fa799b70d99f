"""Compare two sets of full-run result files under BENCHMARK.json's bounds.

    python3 perfbench/compare.py A1.json A2.json A3.json -- B1.json B2.json B3.json

Prints one row per (workload, end-to-end metric): ``same``, ``worse``,
``better``, ``unresolved`` (the run-to-run spread is wider than the bound) or
``not comparable`` (the environment canaries of the two sets differ by more
than 15 %), each ratio with its base. The exit status is the verdict: 0 when
every row is ``same`` or ``better``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

_BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
CANARY_TOLERANCE = 0.15
#: error_share is not in BENCHMARK.json (an end-to-end metric there may never
#: read 0, and this one must): any increase is a regression.
ERROR_SHARE = {"name": "error_share", "unit": "fraction", "better": "lower", "bound": 0.0}


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def worsening(base: float, new: float, better: str) -> float:
    """By what share of ``base`` ``new`` is worse (negative = better)."""
    if base == 0:
        # Only error_share has a zero base: any move away from it is all or nothing.
        change = 0.0 if new == 0 else float("inf") if new > 0 else float("-inf")
    else:
        change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    lower_is_better = better == "lower"
    all_b_better = max(b) < min(a) if lower_is_better else min(b) > max(a)
    all_b_worse = min(b) > max(a) if lower_is_better else max(b) < min(a)
    worse_by = worsening(statistics.median(a), statistics.median(b), better)
    if max(spread(a), spread(b)) > bound > 0 and not (all_b_better or all_b_worse):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound or (bound == 0 and worse_by < 0):
        return "better"
    return "same"


def load_set(paths: Sequence[str]) -> List[Dict[str, Any]]:
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        if result.get("quick"):
            raise SystemExit(f"{path}: a --quick run proves plumbing only and cannot be compared")
        results.append(result)
    return results


def compare(set_a: List[Dict[str, Any]], set_b: List[Dict[str, Any]],
            benchmark: Dict[str, Any]) -> Tuple[List[str], bool]:
    """The report lines and whether the verdict is clean."""
    lines: List[str] = []
    comparable = True
    for canary in sorted(set_a[0]["canaries"]):
        a = statistics.median(result["canaries"][canary] for result in set_a)
        b = statistics.median(result["canaries"][canary] for result in set_b)
        drift = abs(b - a) / a if a else 0.0
        flag = "" if drift <= CANARY_TOLERANCE else "  <-- environments differ"
        comparable = comparable and drift <= CANARY_TOLERANCE
        lines.append(f"canary {canary:28s} A {a:10.3f}  B {b:10.3f}  ({drift:+.1%} of A){flag}")
    clean = comparable
    lines.append(f"{'workload':14s} {'metric':18s} {'median A':>12s} {'median B':>12s} "
                 f"{'B/A':>7s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for workload in [entry["name"] for entry in benchmark["workloads"]]:
        for metric in benchmark["end_to_end"] + [ERROR_SHARE]:
            name = metric["name"]
            a = [r["workloads"][workload]["end_to_end"][name]["value"] for r in set_a]
            b = [r["workloads"][workload]["end_to_end"][name]["value"] for r in set_b]
            outcome = (
                verdict(a, b, metric["better"], metric["bound"]) if comparable else "not comparable"
            )
            clean = clean and outcome in ("same", "better")
            base, new = statistics.median(a), statistics.median(b)
            ratio = f"{new / base:7.3f}" if base else "    n/a"
            lines.append(
                f"{workload:14s} {name:18s} {base:12.4f} {new:12.4f} {ratio} "
                f"{spread(a):9.1%} {spread(b):9.1%} {metric['bound']:6.0%}  {outcome}"
            )
    return lines, clean


def main(argv: Sequence[str]) -> int:
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        sys.stderr.write(__doc__ or "")
        return 2
    split = list(argv).index("--")
    with open(_BENCHMARK_JSON, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    lines, clean = compare(load_set(argv[:split]), load_set(argv[split + 1:]), benchmark)
    print("\n".join(lines))
    print("verdict:", "no regression" if clean else "NOT CLEAN (worse / unresolved / not comparable rows above)")
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
