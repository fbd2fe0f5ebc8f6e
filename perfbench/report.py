"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Prints one line per metric (workload, name, value, unit) after a header
with the Python version, the CPU count and the git commit, and writes the
same record to ``perfbench/out/report.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args(argv)

    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    print(f"python {record['python']}  nproc {record['nproc']}  "
          f"commit {record['commit']}  seed {args.seed}  seconds {args.seconds}")
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload}: run failed with exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            record["workloads"].setdefault(workload, {})[f"trace{trace}"] = result
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    out = HERE / "out" / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
