#!/usr/bin/env python3
"""Run a workload on several seeds and report each end-to-end metric's
median and spread (distance between the first and third quartile, as a
share of the median), against the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --workload fig11-dense --seeds 1-10
    python3 perfbench/steady.py --workload explain --seeds 1-5 --trace 1
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each result line to this file")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for s in seeds(a.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(s), "--seconds", str(spec["run_seconds"]), "--trace", str(a.trace)]
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        lines = [l for l in r.stdout.splitlines() if l.strip()]
        if r.returncode != 0 or not lines:
            print(f"seed {s}: exit {r.returncode}", flush=True)
            continue
        res = json.loads(lines[-1])
        if a.out:
            with open(a.out, "a") as fh:
                fh.write(json.dumps({"workload": a.workload, "seed": s, "result": res}) + "\n")
        for l in lines:
            if l.startswith(("query ", "passes ", "setup ")):
                print(f"  {l}")
        print(f"seed {s}: correct={res['correct']} failed={res['failed']}/{res['attempted']} " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                       if k in bounds or a.trace), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        if len(vs) < 2 or not any(vs):
            continue
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        b = bounds.get(k)
        flag = "" if b is None else (" ok" if spread <= b / 3 else " WIDE" if spread > b else " >b/3")
        print(f"{k:45s} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:6.3f}"
              + ("" if b is None else f"  bound {b}") + flag)


if __name__ == "__main__":
    main()
