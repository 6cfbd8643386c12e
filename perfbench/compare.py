"""Compare two result sets (JSON-lines files written with ``--out``).

For each workload and end-to-end metric it prints each side's median and
quartiles and a verdict under the metric's bound from BENCHMARK.json:

* ``unchanged``: the medians differ by at most the bound;
* ``better`` / ``worse``: they differ by more than the bound and the two
  interquartile ranges do not overlap;
* ``unresolved``: they differ by more than the bound but the ranges
  overlap, or a side has fewer than three runs.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path) -> dict:
    """workload -> metric -> values, from untraced records."""
    table: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for name, value in record["end_to_end"].items():
                table[record["workload"]][name].append(value)
    return table


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before, after, better: str, bound: float) -> str:
    if len(before) < 3 or len(after) < 3:
        return "unresolved"
    b1, b2, b3 = quartiles(before)
    a1, a2, a3 = quartiles(after)
    change = (a2 - b2) / b2 if b2 else 0.0
    if better == "higher":
        change = -change
    if abs(change) <= bound:
        return "unchanged"
    if a1 > b3 or a3 < b1:
        return "worse" if change > 0 else "better"
    return "unresolved"


def main(paths, spec_path) -> int:
    spec = json.loads(spec_path.read_text())
    before, after = load(paths[0]), load(paths[1])
    print(f"{'workload':12s} {'metric':16s} {'before q1/median/q3':>32s} "
          f"{'after q1/median/q3':>32s}  verdict")
    for workload in sorted(set(before) | set(after)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old, new = before[workload][name], after[workload][name]
            if not old or not new:
                continue
            cells = [
                "/".join(f"{v:.4g}" for v in quartiles(side))
                for side in (old, new)
            ]
            print(f"{workload:12s} {name:16s} {cells[0]:>32s} {cells[1]:>32s}  "
                  f"{verdict(old, new, metric['better'], metric['bound'])}")
    return 0
