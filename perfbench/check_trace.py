"""Check the traced run: two traced runs with the same seed must give the
same counts, and the layer self times plus the unattributed time must add
up to the job wall time.

    python3 perfbench/check_trace.py [--seed N] [WORKLOAD ...]

Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_STATS = (".calls", ".sets", ".elements", ".bytes", ".new_ratio")


def traced(workload: str, seed: int):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "20", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return info, result


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    layers = [m["name"] for m in bench["per_layer"]
              if m["name"].count(".") == 1 and m["name"].endswith(".self_s")]
    ok = True
    for workload in args.workloads:
        runs = [traced(workload, args.seed) for _ in range(2)]
        (info1, res1), (info2, res2) = runs
        counts1 = {k: v["value"] for k, v in res1["metrics"].items() if k.endswith(COUNT_STATS)}
        counts2 = {k: v["value"] for k, v in res2["metrics"].items() if k.endswith(COUNT_STATS)}
        same = counts1 == counts2 and info1["counts"] == info2["counts"]
        ok &= same
        for _, res in runs:
            m = {k: v["value"] for k, v in res["metrics"].items()}
            total = sum(m[name] for name in layers) + m["trace.unattributed_s"]
            adds_up = math.isclose(total, m["trace.job_wall_s"], rel_tol=1e-9)
            ok &= adds_up and res["correct"]
            print(f"{workload}: correct={res['correct']} job_wall_s={m['trace.job_wall_s']:.3f} "
                  f"layers+unattributed={total:.3f} unattributed_s={m['trace.unattributed_s']:.4f} "
                  f"untraced_wall_s={m['trace.untraced_wall_s']:.3f} "
                  f"overhead_s={m['trace.overhead_s']:.3f}")
        print(f"{workload}: counts repeat exactly: {same}")
        for key in sorted(set(info1["counts"]) | set(info2["counts"])):
            if info1["counts"].get(key) != info2["counts"].get(key):
                print(f"  {key}: {info1['counts'].get(key)} != {info2['counts'].get(key)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
