"""Repeat the benchmark over several seeds and summarize the spread.

Usage (from the repository root)::

    python3 bench/repeat.py --seeds 10 --out bench/out/set-a.json

For each workload in ``BENCHMARK.json`` this runs ``bench/run.py`` with
``--trace 0`` once per seed (seeds 1..N), then once with ``--trace 1`` on
seed 1.  For every end-to-end metric it reports the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound, and the same for the unscaled
host times from the ``info`` line and for the host speed (the median rate of
the reference loop timed next to each operation, in iterations/s).  The summary is printed and, with
``--out``, written as JSON together with the per-layer metrics of the traced
run and the environment record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    *_, info, result = done.stdout.splitlines()
    info = json.loads(info)["info"]
    info["wall_s"] = time.perf_counter() - t0
    return info, json.loads(result)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [_run(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        traced_info, traced = _run(workload, 1, args.seconds, 1)
        if traced_info["digest"] != runs[0][0]["digest"]:
            print(f"{workload}: traced and untraced digests differ", file=sys.stderr)
        summary, raw = {}, {}
        print(f"== {workload}")
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for _, result in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "values": values}
            print(f"  {name:18s} median {median:14.6g}  spread {spread:6.3f}  bound {bound}")
        for name in runs[0][0]["raw"]:
            values = [info["raw"][name] for info, _ in runs]
            if name == "setup_s":
                values = [statistics.median(v) for v in values]
            q1, median, q3 = statistics.quantiles(values, n=4)
            raw[name] = {"median": median, "spread": (q3 - q1) / median, "values": values}
            print(f"  {'(raw) ' + name:18s} median {median:14.6g}  spread {(q3 - q1) / median:6.3f}")
        speeds = [info["host_speed"] for info, _ in runs]
        q1, median, q3 = statistics.quantiles(speeds, n=4)
        print(f"  {'(host speed)':18s} median {median:14.6g}  spread {(q3 - q1) / median:6.3f}")
        report["workloads"][workload] = {
            "correct": all(result["correct"] for _, result in runs) and traced["correct"],
            "attempted": sum(result["attempted"] for _, result in runs),
            "failed": sum(result["failed"] for _, result in runs),
            "end_to_end": summary,
            "unscaled": raw,
            "host_speed": speeds,
            "wall_s": [info["wall_s"] for info, _ in runs] + [traced_info["wall_s"]],
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
            "self_share_by_module_seed1": traced_info["self_share_by_module"],
            "branch_share_seed1": traced_info["branch_share"],
            "digest_seed1": traced_info["digest"],
        }
        report["env"] = traced_info["env"]
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
