"""Run one quatstar benchmark workload and print its metrics.

    python3 bench/run.py --workload catalogue --seed 0 --seconds 40 --trace 0

One process runs one workload, single-threaded.  It repeats passes over the
workload's items until another pass would not fit in `--seconds`, checks
every pass's outputs outside the timed region, and prints each metric by
name with its unit, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, with times at reference host
speed (hostspeed.py; the unscaled times are printed with them):
  setup_s      median over fresh processes, at least SETUP_PROBES and two
               started after every pass, of the time from process start to
               the first timed item (interpreter start, import quatstar,
               registry build, seeded operand generation)
  wall_s       the time to a verdict: the sum over the steps of a pass (each
               item, then for catalogue the JSON report rendering) of each
               step's median time over the passes
  item_p50_ms  median over the items of each item's median latency
  item_p90_ms  90th percentile of the same
  peak_rss_mb  ru_maxrss of this process
The failure ratio (failed / attempted) is printed with them and carried by
the "failed" and "attempted" fields.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.METRICS, each the median over the traced passes, plus
trace.overhead_ratio (median over the rounds of traced / untraced pass).  The
spans of the last traced pass are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

import hostspeed as H
import tracer as T
import workloads as W

SETUP_PROBES = 10  # at least
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
                    "item_p90_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha()}


def git_sha():
    """HEAD's commit, or None when the checkout is not a git repository.
    Git does not search above the checkout for an enclosing repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(W.ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(W.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def setup_probe(workload: str, seed: int) -> tuple:
    """(unscaled, scaled) set-up time of one fresh process, measured from
    just before it is started."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, W.__file__, workload, str(seed), repr(t0)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    unscaled, scaled = proc.stdout.split()[-2:]
    return float(unscaled), float(scaled)


def measure(workload, seconds: float, traced: bool, probe=None):
    """Rounds of one untraced pass, followed by a traced pass when `traced`
    and by two set-up probes when `probe` is given, until another round
    would overrun `seconds`.  Without `traced`, passes sample the host's
    speed.  Returns (passes, steps, traced_runs, setup): steps
    holds each untraced pass's step times as (unscaled, scaled) pairs,
    traced_runs (pass, tracer) pairs and setup the probe results.

    Probing between passes samples set-up time across the whole run instead
    of in one burst, so that one slow moment of the host cannot skew it."""
    passes, steps, traced_runs, setup = [], [], [], []
    start = perf_counter()
    longest = 0.0
    while True:
        round_start = perf_counter()
        sampler = None if traced else H.Sampler()
        result = W.run_pass(workload, sampler)
        if sampler is not None:
            spans = result.spans + ([result.finish_span] if result.finish_span else [])
            steps.append([(end - begin, sampler.scaled(begin, end)) for begin, end in spans])
        passes.append(W.check_pass(workload, result))
        if traced:
            with T.Tracer() as tracer:
                result = W.run_pass(workload)
            traced_runs.append((W.check_pass(workload, result), tracer))
        if probe is not None:
            setup += [probe(), probe()]
        longest = max(longest, perf_counter() - round_start)
        if perf_counter() - start + longest > seconds:
            return passes, steps, traced_runs, setup


def end_to_end(steps, setup, n_items: int) -> tuple:
    """(metrics, unscaled): the end-to-end metrics, and the same times
    unscaled."""
    def times(which):
        per_step = [statistics.median(t[which] for t in step) for step in zip(*steps)]
        deciles = statistics.quantiles(per_step[:n_items], n=10)
        return {"setup_s": statistics.median(probe[which] for probe in setup),
                "wall_s": sum(per_step),
                "item_p50_ms": deciles[4] * 1e3,
                "item_p90_ms": deciles[8] * 1e3}
    metrics = times(1)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, times(0)


def per_layer(name, passes, traced_runs, env):
    """(metrics, slowest record id, self-time coverage, missing layers);
    writes the last traced pass's spans to .bench_out/."""
    per_pass, coverage, missing = [], [], set()
    max_id = None
    for result, tracer in traced_runs:
        values, max_id = tracer.metrics(result.wall_s)
        per_pass.append(values)
        coverage.append(tracer.self_sum_ratio(result.wall_s))
        calls = tracer.layer_calls()
        missing.update(layer for layer in T.EXPECTED_LAYERS[name] if not calls[layer])
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(
        r.wall_s / p.wall_s for (r, _), p in zip(traced_runs, passes))
    out_dir = W.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{name}.tsv", "w", encoding="utf-8") as handle:
        handle.write(f"# workload {name} env {json.dumps(env)}\n")
        traced_runs[-1][1].write_spans(handle)
    return metrics, max_id, statistics.median(coverage), sorted(missing)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (W.SRC / "quatstar" / "__init__.py").is_file():
        print(f"error: no quatstar sources under {W.SRC}", file=sys.stderr)
        return 2
    env = environment()
    workload = W.build(args.workload, args.seed)
    probe = None if args.trace else (lambda: setup_probe(args.workload, args.seed))
    passes, steps, traced_runs, setup = measure(workload, args.seconds, bool(args.trace), probe)
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    checked = passes + [r for r, _ in traced_runs]
    attempted = sum(p.attempted for p in checked)
    failed = sum(len(p.failed_items) for p in checked)
    correct = failed == 0 and all(p.final_ok for p in checked)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(workload.items)} items" + (f", {len(traced_runs)} traced" if traced_runs else ""))
    if args.trace:
        values, max_id, coverage, missing = per_layer(args.workload, passes, traced_runs, env)
        units, notes = T.METRICS, {"verify.record.max_s": max_id}
        if missing:
            correct = False
            print(f"error: no calls recorded in expected layers: {', '.join(missing)}",
                  file=sys.stderr)
    else:
        (values, unscaled), units = end_to_end(steps, setup, len(workload.items)), END_TO_END_UNITS
        samples = f"{len(workload.items)} items x {len(passes)} passes"
        counts = {"setup_s": f"{len(setup)} processes", "wall_s": f"{len(passes)} passes",
                  "item_p50_ms": samples, "item_p90_ms": samples}
        notes = {key: f"unscaled {unscaled[key]:.6g} {units[key]}; {counts[key]}" for key in counts}
    for key, value in values.items():
        note = f"  ({notes[key]})" if notes.get(key) else ""
        print(f"  {key:<28} {value:>14.6g} {units[key]}{note}")
    print(f"  {'fail_ratio':<28} {failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
    if args.trace:
        print(f"  {'self time / traced wall':<28} {coverage:>14.6g} ratio  "
              "(layers + bookkeeping; 1 when every moment is attributed once)")
    for p in checked:
        if p.failed_items or not p.final_ok:
            print(f"  failed: {', '.join(p.failed_items[:8]) or 'final output check'}",
                  file=sys.stderr)
            break
    print("env " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
