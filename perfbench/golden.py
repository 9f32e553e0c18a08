#!/usr/bin/env python3
"""Write golden.json: answer digests and counters of every workload at the
default seed, after the answers pass every independent check.

    python3 perfbench/golden.py

Run it only on a commit whose answers are trusted; ``run.py`` then fails
any answer at the default seed that differs from the recorded one.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    sys.path.insert(0, str(run.SRC))
    import checks
    import workloads
    from singlab import cli

    golden = {}
    for name in workloads.WORKLOADS:
        ops = workloads.operations(name, run.DEFAULT_SEED)
        failed, problems, verdicts = run.check_answers(ops, [run.run_pass(cli, ops, {})],
                                                       run.DEFAULT_SEED, None)
        if failed or problems:
            run.die(f"{name}: {failed} wrong answers: {problems[:5]}")
        golden[name] = {
            "ops": {op.id: checks.digest(v.answer) for op, v in zip(ops, verdicts)},
            "counters": checks.counters(verdicts),
        }
        print(f"{name}: {len(ops)} operations")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(run.HERE))
    main()
