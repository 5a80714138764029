"""Run the benchmark in alternating parent/change pairs and summarize them.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload loose-multimode --seeds 201-210 --seconds 36 --tag hinf-newton

Both directories are full checkouts (a `git clone` or `git archive` of
each commit).  For every workload and seed it runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in each checkout, one process at a time, alternating which side
runs first from one seed to the next, and reads the JSON object on the
last line of each run's stdout.  It writes BENCH_<tag>.json into the
change checkout: per workload and side, the median and quartiles of
every end-to-end metric, the runs' correct/failed counts, and per
metric the number of pairs the change won (by the `better` direction
in BENCHMARK.json; ties count for neither side) and each pair's values.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    """'201-210' or '3,4,9' -> list of ints."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs, end_to_end):
    """Per metric: each side's median and quartiles, wins and pair values."""
    out = {}
    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        out[name] = {
            "unit": metric["unit"], "better": better, "bound": metric["bound"],
            "parent": summary(parent), "change": summary(change),
            "change_wins": sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0),
            "parent_wins": sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0),
            "pairs": [[a, b] for a, b in zip(parent, change)],
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, action="append",
                    help="workload name; repeat for several")
    ap.add_argument("--seeds", required=True, help="e.g. 201-210 or 3,4,9")
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--tag", required=True, help="the file written is BENCH_<tag>.json")
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics']['throughput_ops_s']['value']:.1f} ops/s"
                for side in ("parent", "change")), flush=True)
        report["workloads"][workload] = {
            "runs": {side: [{"seed": p["seed"], "correct": p[side]["correct"],
                             "attempted": p[side]["attempted"], "failed": p[side]["failed"]}
                            for p in pairs] for side in ("parent", "change")},
            "metrics": summarize(pairs, bench["end_to_end"]),
        }
    out = args.change / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
