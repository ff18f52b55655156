#!/usr/bin/env python3
"""Alternating parent/change pairs of two perfbench binaries.

Runs N pairs on one workload, pair i on seed SEED+i (or every pair on
SEED, with --same-seed), alternating which side runs first, and appends every result line to a JSONL file. Then it
prints, for each metric: each side's median and quartiles, the ratio of
the change's median to the parent's, the parent's IQR as a share of its
median, and in how many pairs the change read better (ties count for
neither side). A gain counts only when the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
IQR.

It only runs the two binaries (build each with `perfbench/run.py`, or
`cmake --build <dir> --target perfbench`); metric directions come from
the parent binary's --spec.

    python3 tools/perf_pairs.py --parent P/.bench_build/perfbench \\
        --change .bench_build/perfbench --workload serve_small \\
        --pairs 10 --seed 71 --seconds 20 [--trace 1] [--out runs.jsonl]

Exit 0 when every run exits 0 and reports "correct": true, 1 otherwise.
"""
import argparse
import json
import math
import subprocess
import sys

# A run gets its measuring window plus this long for set-up, warm-up
# and its output checks.
RUN_SLACK_S = 150


def run_once(binary, args, seed):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, f"exit {out.returncode}: {out.stderr.strip()[-400:]}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError as e:
        return None, f"unparsable result line: {e}"


def quantile(sorted_vals, q):
    """Linear interpolation between closest ranks."""
    if not sorted_vals:
        return math.nan
    pos = (len(sorted_vals) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def directions(binary):
    out = subprocess.run([binary, "--spec"], capture_output=True, text=True,
                         check=True)
    spec = json.loads(out.stdout)
    return {m["name"]: m["better"] == "higher"
            for key in ("end_to_end", "per_layer") for m in spec[key]}


def fmt(v):
    return f"{v:.6g}" if math.isfinite(v) else str(v)


def summarize(pairs, higher_better):
    names = []
    for p in pairs:
        for side in ("parent", "change"):
            for name in p[side]["metrics"]:
                if name not in names:
                    names.append(name)
    print(f"{'metric':34} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'ratio':>8} {'IQR/med':>8} "
          f"{'wins':>6}")
    for name in names:
        cols = {}
        for side in ("parent", "change"):
            vals = sorted(p[side]["metrics"][name]["value"] for p in pairs
                          if name in p[side]["metrics"])
            cols[side] = (quantile(vals, 0.5), quantile(vals, 0.25),
                          quantile(vals, 0.75))
        pm, pq1, pq3 = cols["parent"]
        cm, cq1, cq3 = cols["change"]
        ratio = cm / pm if pm else math.nan
        iqr = (pq3 - pq1) / pm if pm else math.nan
        wins = "?"
        if name in higher_better:
            won = 0
            for p in pairs:
                a = p["parent"]["metrics"].get(name, {}).get("value")
                b = p["change"]["metrics"].get(name, {}).get("value")
                if a is None or b is None or a == b:
                    continue
                won += (b > a) == higher_better[name]
            wins = f"{won}/{len(pairs)}"
        print(f"{name:34} "
              f"{fmt(pm) + ' [' + fmt(pq1) + ', ' + fmt(pq3) + ']':34} "
              f"{fmt(cm) + ' [' + fmt(cq1) + ', ' + fmt(cq3) + ']':34} "
              f"{fmt(ratio):>8} {fmt(iqr):>8} {wins:>6}")
    for side in ("parent", "change"):
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        correct = all(p[side]["correct"] for p in pairs)
        print(f"{side}: {failed} failed of {attempted} attempted, "
              f"correct in every run: {str(correct).lower()}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent's perfbench")
    ap.add_argument("--change", required=True, help="change's perfbench")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=71,
                    help="seed of the first pair; pair i runs SEED+i")
    ap.add_argument("--same-seed", action="store_true",
                    help="run every pair on SEED (e.g. the held-out seed)")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default="perf_pairs.jsonl",
                    help="JSONL file the result lines are appended to")
    args = ap.parse_args()

    higher_better = directions(args.parent)
    pairs = []
    ok = True
    with open(args.out, "a") as out:
        for i in range(args.pairs):
            seed = args.seed if args.same_seed else args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            pair = {}
            for side in order:
                binary = args.parent if side == "parent" else args.change
                result, err = run_once(binary, args, seed)
                if result is None or not result.get("correct", False):
                    ok = False
                    print(f"pair {i} {side} seed {seed}: "
                          f"{err or 'output check failed'}", file=sys.stderr)
                if result is None:
                    continue
                pair[side] = result
                out.write(json.dumps({"pair": i, "side": side, "seed": seed,
                                      "first": side == order[0],
                                      "workload": args.workload,
                                      "result": result}) + "\n")
                out.flush()
            if len(pair) == 2:
                pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} "
                  f"first) done", file=sys.stderr)
    if pairs:
        last = args.seed if args.same_seed else args.seed + args.pairs - 1
        print(f"{args.workload}: {len(pairs)} pairs of {args.seconds} s, "
              f"seeds {args.seed}-{last}, trace {args.trace}")
        summarize(pairs, higher_better)
    return 0 if ok and pairs else 1


if __name__ == "__main__":
    sys.exit(main())
