"""Compare two result sets of bench/run.py: the parent commit and a change.

    python3 bench/compare.py results/parent results/change

Each argument is a directory of result files written by ``run.py --out``.
Runs pair up by workload and seed.  For every workload and end-to-end metric
the report gives each side's median and quartiles, the share of pairs the
change won (ties count for neither) and a verdict against the bound in
BENCHMARK.json:

* ``better``: the change won at least 9 in 10 pairs and the medians differ
  by more than the parent's own spread (the distance between its quartiles);
* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``unresolved``: the parent's spread is wider than the bound, unless every
  run of the change beats every run of the parent;
* ``within bound``: none of these.

It then lists cli-corpus responses that differ between paired runs, by
request name (the byte-identical refactor gate), and the per-layer metrics of
the traced runs with their deltas, self time per layer first.  The exit code
is 1 when a metric is worse or a response differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        runs[(result["workload"], result["trace"], result["seed"])] = result
    if not runs:
        sys.exit(f"no result files in {directory}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, change, bound, lower_is_better):
    def better(a, b):
        return a < b if lower_is_better else a > b

    won = sum(1 for b, c in zip(base, change) if better(c, b)) / len(base)
    q1, med_b, q3 = quartiles(base)
    _, med_c, _ = quartiles(change)
    spread = (q3 - q1) / abs(med_b) if med_b else 0.0
    worse_by = (med_c - med_b if lower_is_better else med_b - med_c) / abs(med_b) \
        if med_b else 0.0
    all_better = all(better(c, b) for c in change for b in base)
    if won >= 0.9 and abs(med_c - med_b) > q3 - q1:
        return won, "better"
    if worse_by > bound:
        return won, "worse"
    if spread > bound and not all_better:
        return won, "unresolved"
    return won, "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.parent), load(args.change)
    status = 0

    for side, runs in (("parent", base), ("change", change)):
        envs = {(r["environment"]["commit"], r["environment"]["python"],
                 r["environment"]["nproc"]) for r in runs.values()}
        print(f"{side}: " + "; ".join(f"commit {c[:12]} python {p} nproc {n}"
                                      for c, p, n in sorted(envs)))

    for workload in [w["name"] for w in spec["workloads"]]:
        seeds, traced = (sorted(s for (w, t, s) in base if w == workload and t == trace
                                and (w, t, s) in change) for trace in (0, 1))
        if not seeds and not traced:
            continue
        print(f"\n{workload}: {len(seeds)} seed-paired runs, {len(traced)} traced")
        if seeds:
            print(f"  {'metric':<18} {'parent median [q1, q3]':>30} "
                  f"{'change median [q1, q3]':>30} {'won':>5}  verdict")
        for metric in spec["end_to_end"] if seeds else ():
            name = metric["name"]
            b = [base[(workload, 0, s)]["end_to_end"][name] for s in seeds]
            c = [change[(workload, 0, s)]["end_to_end"][name] for s in seeds]
            won, word = verdict(b, c, metric["bound"], metric["better"] == "lower")
            status = status or word == "worse"
            bq, cq = quartiles(b), quartiles(c)
            print(f"  {name:<18} {bq[1]:>12.5g} [{bq[0]:.4g}, {bq[2]:.4g}]"
                  f"{'':>2}{cq[1]:>12.5g} [{cq[0]:.4g}, {cq[2]:.4g}] {won:>5.0%}  {word}")
        differ = []
        for s in seeds:
            rb = base[(workload, 0, s)].get("responses")
            rc = change[(workload, 0, s)].get("responses")
            if rb is None or rc is None:
                continue
            for name in sorted(set(rb) | set(rc)):
                if rb.get(name) != rc.get(name):
                    differ.append(f"seed {s} {name}")
        if differ:
            status = 1
            print(f"  responses that differ ({len(differ)}):")
            for line in differ:
                print(f"    {line}")

        if not traced:
            continue
        print(f"  per layer, {len(traced)} traced seed pairs (medians):")
        names = list(base[(workload, 1, traced[0])]["per_layer"])
        names.sort(key=lambda n: (not n.endswith(".self_s"), n))
        for name in names:
            b = statistics.median(base[(workload, 1, s)]["per_layer"][name] for s in traced)
            c = statistics.median(change[(workload, 1, s)]["per_layer"].get(name, 0.0)
                                  for s in traced)
            if b or c:
                rel = f"{(c - b) / abs(b):+.1%}" if b else ""
                print(f"    {name:<34} {b:>12.5g} -> {c:<12.5g} {c - b:+.4g} {rel}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
