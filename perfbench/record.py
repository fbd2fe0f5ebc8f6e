"""Record the reference answers the benchmark checks against.

    python3 perfbench/record.py

Solves every pooled instance with the package as it is and writes
``perfbench/reference.json``.  For each approx-random instance it stores the
digests of both approximate matchings and a work count (the squared
candidate counts of both modes), which sorts each pool into strata; a
count, unlike a time, is the same on every machine.  For each oracle-exact
instance it stores the optimum and the digest of the maximum matching.
Run this only to rebuild the pools: later versions of the package must
reproduce these answers exactly.
"""
from __future__ import annotations

import json
import platform
import sys
import time

from run import use_checkout_source


def main() -> int:
    use_checkout_source()
    import workloads as wl
    import rectmatch.matching as matching

    approx = {"mono": [], "bi": [], "work": [], "strata": []}
    pool = wl.APPROX_STRATA * wl.APPROX_STRATUM
    for slot in range(len(wl.APPROX_SIZES)):
        for key in ("mono", "bi", "work"):
            approx[key].append([])
        for k in range(pool):
            s = wl.approx_instance(slot, k)
            work = 0
            for mode, solver in (("mono", matching.approx_mmrm), ("bi", matching.approx_mbrm)):
                report = solver(s)
                approx[mode][slot].append(wl.digest(report.matching))
                work += report.candidate_count ** 2
            approx["work"][slot].append(work)
        by_work = sorted(range(pool), key=lambda k: (approx["work"][slot][k], k))
        approx["strata"].append([by_work[i:i + wl.APPROX_STRATUM]
                                 for i in range(0, pool, wl.APPROX_STRATUM)])
        print(f"approx slot {slot} done", file=sys.stderr, flush=True)

    opt, digests = [], []
    for slot, (mode, n) in enumerate(wl.ORACLE_SLOTS):
        opt.append([]), digests.append([])
        t0 = time.perf_counter()
        for k in range(wl.ORACLE_POOL):
            m = matching.brute_force_max_matching(
                wl.oracle_instance(slot, k), wl.MODES[mode], max_points=wl.NO_GUARD)
            opt[slot].append(len(m))
            digests[slot].append(wl.digest(m))
        print(f"oracle {mode} n={n}: {time.perf_counter() - t0:.2f} s",
              file=sys.stderr, flush=True)

    doc = {
        "python": platform.python_version(),
        "approx": approx,
        "oracle": {"opt": opt, "digest": digests},
    }
    with open(wl.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
