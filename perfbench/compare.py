#!/usr/bin/env python3
"""Compare saved benchmark results of two commits.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the standard output of ``run.py`` runs, one file per
run.  Runs are grouped by workload and trace mode and paired by seed.  For
every metric the table gives each side's median and quartiles, the change
of the medians, how many seed pairs the change won, and for end-to-end
metrics the verdict against the bound in BENCHMARK.json: a gain needs at
least nine tenths of the pairs and a median shift larger than the base's
own quartile spread; a median worse by more than the bound is a
regression; a base spread wider than the bound leaves the metric
unresolved.  Results whose kernel path or enumeration budget differ are
not comparable (compiled and pure kernels differ by about 100x), so the
script refuses them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE = ("kernel", "SINGLAB_PURE", "SINGLAB_MAX_ENUM")


def load(directory):
    runs = []
    for path in sorted(Path(directory).iterdir()):
        lines = path.read_text().strip().splitlines()
        if len(lines) < 2 or not lines[-2].startswith("meta "):
            continue
        runs.append((json.loads(lines[-2][len("meta "):]), json.loads(lines[-1])))
    if not runs:
        sys.exit(f"compare: no run.py results in {directory}")
    return runs


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, change = load(argv[0]), load(argv[1])
    paths = {tuple(m[key] for key in COMPARABLE) for m, _ in base + change}
    if len(paths) != 1:
        sys.exit(f"compare: refusing to compare results with different {COMPARABLE}: {sorted(paths)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"]}

    groups = {}
    for side, runs in (("base", base), ("change", change)):
        for meta, result in runs:
            key = (meta["workload"], meta["trace"])
            groups.setdefault(key, {"base": {}, "change": {}})[side][meta["seed"]] = result
    for (workload, trace), sides in sorted(groups.items()):
        print(f"\n{workload}  trace={trace}  runs: base {len(sides['base'])}, "
              f"change {len(sides['change'])}")
        for side, results in sides.items():
            bad = [seed for seed, r in results.items() if not r["correct"] or r["failed"]]
            if bad:
                print(f"  {side}: wrong answers on seeds {bad}")
        names = next(iter(sides["base"].values()), {"metrics": {}})["metrics"]
        for name in names:
            b = [r["metrics"][name]["value"] for r in sides["base"].values()]
            c = [r["metrics"][name]["value"] for r in sides["change"].values()
                 if name in r["metrics"]]
            if not c:
                continue
            (bq1, bmed, bq3), (cq1, cmed, cq3) = spread(b), spread(c)
            sign = 1 if lower.get(name, True) else -1
            pairs = [(sides["base"][s]["metrics"][name]["value"], r["metrics"][name]["value"])
                     for s, r in sides["change"].items() if s in sides["base"]]
            wins = sum(sign * (x - y) > 0 for x, y in pairs)
            rel = (cmed - bmed) / bmed if bmed else 0.0
            verdict = ""
            if name in e2e:
                bound, base_spread = e2e[name]["bound"], (bq3 - bq1) / bmed if bmed else 0.0
                if pairs and wins >= 0.9 * len(pairs) and sign * (bmed - cmed) > bq3 - bq1:
                    verdict = "better"
                elif sign * rel > bound:
                    verdict = "WORSE beyond bound"
                elif base_spread > bound:
                    verdict = "unresolved (base spread above bound)"
                else:
                    verdict = "within bound"
            unit = next(iter(sides["base"].values()))["metrics"][name]["unit"]
            print(f"  {name:<36} base {bmed:>11.5g} [{bq1:.5g}, {bq3:.5g}]  change {cmed:>11.5g} "
                  f"[{cq1:.5g}, {cq3:.5g}] {unit:<5} {rel:+7.1%}  wins {wins}/{len(pairs)}  {verdict}")


if __name__ == "__main__":
    main(sys.argv[1:])
