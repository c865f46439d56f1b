"""Record the correctness gate's expectations into expected.json.

Run at the commit whose behaviour defines "correct" (the seed commit), from
the root of the checkout:

    python3 perfbench/capture.py

For every command of every workload, at both scales, it runs one pass per
input seed 0..SEED_TABLE-1 and stores the distinct gate records with, when
they differ between seeds, the record index per seed, plus the output digest
per seed.  The whole table is recorded afresh each time.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    run.pin_blas(run.blas_threads())
    import workloads
    import worker

    package = worker.load_package()
    table: dict[str, dict] = {}
    workdir = run.ROOT / ".bench_work" / f"capture-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        for scale in workloads.SCALES:
            for workload in workloads.WORKLOADS:
                table.setdefault(scale, {})[workload] = capture(
                    package.cli, workload, scale, workdir)
                print(f"captured {scale} {workload}", file=sys.stderr, flush=True)
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    worker.EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def capture(cli, workload: str, scale: str, workdir: Path) -> dict:
    import workloads
    import worker

    records: dict[str, list] = {}
    digests: dict[str, list] = {}
    for s in range(workloads.SEED_TABLE):
        observed = worker.run_pass(cli, workload, scale, s, workdir)["observed"]
        for label, (record, digest) in observed.items():
            records.setdefault(label, []).append(record)
            digests.setdefault(label, []).append(digest)
    out = {}
    for label, per_seed in records.items():
        variants = []
        for record in per_seed:
            if record not in variants:
                variants.append(record)
        entry = {"variants": variants}
        if len(variants) > 1:
            entry["by_seed"] = [variants.index(r) for r in per_seed]
        d = digests[label]
        entry["digests"] = d if len(set(d)) > 1 else d[:1]
        out[label] = entry
    return out


if __name__ == "__main__":
    sys.exit(main())
