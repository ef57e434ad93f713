"""Repeat benchmark runs and compare sets of them.

    # ten runs of one workload, each with another seed, from a checkout root
    python3 perfbench/compare.py run --workload search_cached --seeds 1-10 --out a.jsonl
    # medians and quartile spreads of every end-to-end metric
    python3 perfbench/compare.py summary a.jsonl
    # a second set (another commit's checkout) against the first
    python3 perfbench/compare.py diff a.jsonl b.jsonl

Runs are untraced (``--trace 0``).  Each line of a results file is a
run's final JSON line plus its ``workload``, ``seed``, ``elapsed_s`` and
``details``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def seed_list(text: str) -> list[int]:
    """Parse ``N`` or an inclusive range ``N-M`` of seeds."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(text)]


def cmd_run(args) -> int:
    """Run the benchmark once per seed and append each result line."""
    with open(args.out, "a") as out:
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [*SPEC["command"], "--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-4000:], file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            details = [line for line in lines if line.startswith("details: ")]
            result.update(workload=args.workload, seed=seed,
                          elapsed_s=time.perf_counter() - started,
                          details=json.loads(details[0][len("details: "):]) if details else None)
            out.write(json.dumps(result) + "\n")
            out.flush()
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{args.workload} seed {seed}: correct={result['correct']} "
                  f"{result['elapsed_s']:.1f}s {values}")
    return 0


def load(path) -> dict:
    """``{workload: {metric: [values]}}`` of the runs in a file."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        result = json.loads(line)
        for name, metric in result["metrics"].items():
            runs[result["workload"]][name].append(metric["value"])
    return runs


def cmd_summary(args) -> int:
    """Print each metric's median and quartile spread per workload."""
    for path in args.files:
        for workload, metrics in load(path).items():
            print(f"{path} {workload}")
            for name, values in metrics.items():
                bound = BOUNDS.get(name, {}).get("bound")
                spread = benchstats.spread_share(values) if len(values) >= 2 else float("nan")
                flag = "" if bound is None or spread < bound / 3 else "  <- spread >= bound/3"
                print(f"  {name:18s} n={len(values):2d} median={statistics.median(values):.6g} "
                      f"spread={spread:.3f} bound={bound}{flag}")
    return 0


def cmd_diff(args) -> int:
    """Print how much worse each median got; exit 1 past a bound."""
    base, new = load(args.base), load(args.new)
    worst = 0
    for workload in sorted(set(base) & set(new)):
        for name, spec in BOUNDS.items():
            a, b = base[workload].get(name), new[workload].get(name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            verdict = "ok"
            if worse > spec["bound"]:
                verdict = "REGRESSED"
                worst = 1
            print(f"{workload:14s} {name:18s} base={ma:.6g} new={mb:.6g} "
                  f"worse_by={worse:+.3f} bound={spec['bound']} {verdict}")
    return worst


def main(argv=None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("summary")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_summary)
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=cmd_diff)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
