"""Record reference.json: the output digest of every (slot, variant) job of
every workload, as the program in ./src produces it.

    python3 perfbench/record.py

Run it at the commit whose outputs are the reference.  Jobs judged by the
exit-code contract alone are not recorded.  Per-slot timings go to stderr,
so the seed-to-seed spread of a pass's cost can be read off.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from run import HERE, ROOT, load_program
import workloads


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    ml = load_program()
    out = {}
    try:
        for workload in workloads.WORKLOADS:
            refs = {}
            started = time.perf_counter()
            for job in workloads.all_variant_jobs(ml, workload):
                if job.contract_only:
                    continue
                t0 = time.perf_counter()
                raw = job.call()
                spent = time.perf_counter() - t0
                if job.validate is not None and not job.validate(raw):
                    raise RuntimeError(f"{job.key}: certificate check failed")
                refs[job.key] = workloads.digest(job.canon(raw))
                print(f"{workload}\t{job.key}\t{spent:.6f}", file=sys.stderr)
            out[workload] = dict(sorted(refs.items()))
            print(f"{workload}: {len(refs)} outputs in {time.perf_counter() - started:.1f}s",
                  file=sys.stderr)
    finally:
        shutil.rmtree(ROOT / workloads.WORKDIR, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
