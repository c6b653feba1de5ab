"""Rewrite reference_digests.json from the code in this checkout.

    python3 perfbench/make_reference.py

For each reference seed (0 to 9), sets up and runs each workload once
and stores the digest of every artifact.  ``sweep-par`` is checked against the
``sweep`` digests, since its outputs must equal the serial ones.  Run
this only when an output format changes on purpose and say so where the
change is recorded: the benchmark fails every run whose artifacts
differ from these digests.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, SRC, child_environment


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    reference: dict[str, dict[str, dict[str, str]]] = {}
    for name in ("sweep", "analysis", "cli"):
        for seed in range(10):
            work = ROOT / ".bench_work" / f"reference-{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                wl = workloads.make(name, seed, work, child_environment())
                wl.setup()
                digests = wl.setup_digests()
                rep = wl.rep(work / "rep0", None)
                failed = [what for what, ok in rep.checks if not ok]
                if failed:
                    raise SystemExit(f"{name} seed {seed}: {failed}")
                digests.update(wl.digests(work / "rep0"))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            reference.setdefault(wl.reference, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
    (HERE / "reference_digests.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
