#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the singlab command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
Each operation is one in-process ``singlab.cli.main(argv)`` call with its
document on stdin and stdout captured, run cold: a fresh document per call
and the program's ``lru_cache``s cleared, so nothing survives from the
previous call except imported modules.  One process runs the operations
one after another (a closed loop with a single client), repeating the
workload's fixed operation list in passes until ``--seconds`` is used up.

Times are reported in seconds at a reference speed measured during the
run (``speed.py``), and each operation's time is the sum of its segments'
fastest passes (``tracer.Marks``); ``README.md`` says why.
With ``--trace 0`` the last line of stdout reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics instead (self time per layer and pass, error counts,
machine-independent counters and the tracing overhead).  The line before
it (``meta ...``) records the kernel path, enumeration budget, Python
version and CPU count; ``compare.py`` refuses to compare results whose
kernel path or budget differ.  Exit status 0 means a result was printed;
whether every answer was right is its ``correct`` field.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 4  # fresh-interpreter imports before each round of passes
SETUP_CODE = ("import time; t = time.perf_counter(); import singlab.cli; "
              "print(time.perf_counter() - t)")


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def python_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def sample_setup(times, count):
    """Append ``count`` wall times of ``import singlab.cli`` (the import every
    command line pays, kernel selection included), each in a fresh
    interpreter."""
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=python_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            die(f"importing singlab failed:\n{proc.stderr}")
        times.append(float(proc.stdout))


def clear_caches():
    """Empty every ``functools`` cache in the program, as a new process would."""
    for name, mod in list(sys.modules.items()):
        if name == "singlab" or name.startswith("singlab."):
            for value in list(vars(mod).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def run_pass(cli, ops, chunks, tracer=None, marks=None):
    """One pass over the operation list: [(seconds, exit code, stdout, stderr,
    segment seconds, reference chunk seconds)].  After each operation, the
    reference kernel runs as many chunks as ``chunks[i]`` says, filled in
    from the operation's time on the first pass."""
    import speed

    results = []
    gc.collect()  # once per pass: a collection before every operation
    # evicts the caches and made millisecond operations slower and noisier
    for i, op in enumerate(ops):
        clear_caches()
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(op.stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    if tracer is None:
                        code = cli.main(list(op.argv))
                    else:
                        code = tracer.run_op(op.id, cli.main, list(op.argv))
                except (Exception, SystemExit) as exc:  # a failed operation, not a failed run
                    code = f"raised {exc!r}"
                end = time.perf_counter()
        finally:
            sys.stdin = sys.__stdin__
        segments = marks.segments(start, end) if marks else (end - start,)
        count = chunks.setdefault(i, speed.count(end - start))
        reference = tuple(speed.chunk() for _ in range(count))
        results.append((end - start, code, out.getvalue(), err.getvalue(), segments, reference))
    return results


def timed_passes(cli, ops, seconds, tracer=None, setup_times=None):
    """Rounds of one untraced pass (and, with a tracer, one traced pass,
    taking turns at going first) until the next round would overrun
    ``seconds``; at least one round.  Without a tracer the untraced passes
    are cut into segments by ``tracer.Marks``.  Import times are sampled
    before every round, so that they span the whole run."""
    import tracer as tracing

    marks = None if tracer else tracing.Marks()
    chunks = {}
    plain, traced, rounds = [], [], []
    begin = time.perf_counter()
    while True:
        if setup_times is not None:
            sample_setup(setup_times, SETUP_SAMPLES)
        start = time.perf_counter()
        if tracer is None or len(rounds) % 2:
            plain.append(patched(marks, run_pass, cli, ops, chunks, marks=marks))
        if tracer is not None:
            traced.append(patched(tracer, run_pass, cli, ops, chunks, tracer))
            if len(plain) < len(traced):
                plain.append(run_pass(cli, ops, chunks))
        rounds.append(time.perf_counter() - start)
        if time.perf_counter() - begin + statistics.median(rounds) > seconds:
            return plain, traced


def patched(wrappers, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with ``wrappers`` (a Tracer or Marks, or None)
    patched into the program."""
    if wrappers is None:
        return fn(*args, **kwargs)
    wrappers.patch()
    try:
        return fn(*args, **kwargs)
    finally:
        wrappers.unpatch()


def check_answers(ops, passes, seed, golden):
    """Count failed executions; return (failed, problems, verdicts)."""
    import checks

    verdicts = [checks.Verdict(op, seed) for op in ops]
    problems = []
    failed = 0
    first_digest = {}
    for i, op in enumerate(ops):
        code, out = passes[0][i][1], passes[0][i][2]
        try:
            if code != 0:
                raise ValueError(f"exit {code}: {passes[0][i][3].strip()[:200]}")
            found = verdicts[i].check(json.loads(out))
            first_digest[i] = checks.digest(verdicts[i].answer)
            if golden is not None and golden.get(op.id) != first_digest[i]:
                found.append("answer differs from the golden digest")
        except Exception as exc:  # a malformed answer fails its operation only
            found = [f"unreadable answer: {exc!r}"]
        if found:
            problems.append(f"{op.id}: {'; '.join(found)}")
            first_digest.pop(i, None)
    for results in passes:
        for i, op in enumerate(ops):
            code, out = results[i][1], results[i][2]
            ok = code == 0 and i in first_digest
            if ok and results is not passes[0]:
                try:
                    answer = checks.project(op.expect["kind"], json.loads(out))
                    ok = checks.digest(answer) == first_digest[i]
                except Exception:  # a malformed answer fails its operation only
                    ok = False
                if not ok:
                    problems.append(f"{op.id}: answer changed between passes")
            failed += not ok
    return failed, problems, verdicts


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def list_time(passes):
    """Time to run the operation list once: the sum over operations of each
    operation's fastest pass."""
    return sum(min(column) for column in zip(*([r[0] for r in results] for results in passes)))


def op_times(passes):
    """Each operation's time: the sum over its segments of each segment's
    fastest pass (its own fastest pass if its segments differ between
    passes, which only a failing operation can make them do)."""
    times = []
    for i in range(len(passes[0])):
        runs = [results[i][4] for results in passes]
        if len({len(segments) for segments in runs}) == 1:
            times.append(sum(min(column) for column in zip(*runs)))
        else:
            times.append(min(results[i][0] for results in passes))
    return times


def end_to_end(passes, setup_times, scale):
    """Interference from the rest of the machine only ever adds time, comes
    in bursts of seconds to minutes and slows whole minutes by up to 2x.
    So each segment of an operation is credited with its fastest pass, and
    every time is converted to seconds at the reference speed (``scale``,
    see ``speed.py``).  ``op_p50_ms`` and ``op_p90_ms`` are percentiles
    over the operations of the list, each operation weighted once."""
    times = op_times(passes)
    ms = [x * scale * 1000 for x in times]
    p90 = quantile(ms, 0.9) if len(ms) > 1 else ms[0]
    return {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "wall_s": (sum(times) * scale, "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {"samples": len(ms), "beyond_p90": sum(x > p90 for x in ms),
        "raw_wall_s": round(sum(times), 6), "raw_setup_s": round(statistics.median(setup_times), 6)}


def per_layer(tracer, plain, traced, counts, scale):
    import checks
    import tracer as tracing

    times, errors = tracer.self_times()
    out = {}
    for name in tracing.span_names(checks.VERIFY_CHECKS):
        out[name] = (times.get(name, 0.0) / len(traced) * scale, "s")
    for layer in tracing.LAYERS:
        out[f"{layer}.errors"] = (errors.get(layer, 0), "count")
    for name, value in counts.items():
        out[name] = (value, "share" if name.endswith("_fill") else "count")
    out["trace.wall_s"] = (list_time(traced) * scale, "s")
    out["trace.overhead_s"] = ((list_time(traced) - list_time(plain)) * scale, "s")
    return out


def metadata(args, engine, passes, ops):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "kernel": "compiled" if engine.USING_COMPILED else "pure",
        "SINGLAB_PURE": os.environ.get("SINGLAB_PURE", ""),
        "SINGLAB_MAX_ENUM": engine.max_enum(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "singlab" / "cli.py").is_file():
        die(f"no program to measure: {SRC / 'singlab'} is missing")
    setup_times = None if args.trace else []
    if setup_times is not None:
        sample_setup([], 1)  # warms the bytecode cache; not counted
    sys.path.insert(0, str(SRC))
    import checks
    import speed
    import tracer as tracing
    from singlab import _engine, cli  # warm-up: imports only

    ops = workloads.operations(args.workload, args.seed)
    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text())[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    for _ in range(speed.count(1.0)):
        speed.chunk()  # warm-up: not counted
    plain, traced = timed_passes(cli, ops, args.seconds, tracer, setup_times)
    scale = speed.scale([[t for r in results for t in r[5]] for results in plain + traced])

    failed, problems, verdicts = check_answers(ops, plain + traced, args.seed,
                                               golden and golden["ops"])
    counts = checks.counters(verdicts)
    if golden is not None and counts != golden["counters"]:
        problems.append(f"counters {counts} differ from the golden {golden['counters']}")
    attempted = len(ops) * (len(plain) + len(traced))
    meta = metadata(args, _engine, plain + traced, ops)
    if args.trace:
        metrics = per_layer(tracer, plain, traced, counts, scale)
    else:
        metrics, pooled = end_to_end(plain, setup_times, scale)
        meta.update(pooled)
    meta["speed_scale"] = round(scale, 6)
    meta["reference_chunks"] = sum(len(r[5]) for r in plain[0])
    meta["pass_walls"] = [round(sum(r[0] for r in results), 4) for results in plain]
    meta["fail_ratio"] = failed / attempted

    for problem in problems[:20]:
        print(f"perfbench: WRONG {problem}", file=sys.stderr)
    print(f"{args.workload}  seed {args.seed}  {meta['passes']} passes x {len(ops)} operations")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "op_p90_ms":
            extra = f"   ({meta['samples']} operations, {meta['beyond_p90']} beyond)"
        print(f"  {name:<40} {value:>14.6g} {unit}{extra}")
    print(f"  {'fail_ratio':<40} {meta['fail_ratio']:>14.6g} ratio   ({failed}/{attempted})")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
