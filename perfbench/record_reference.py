"""Record the correctness gate's reference digests into reference.json.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only on a commit whose reports are known good: every later run
compares its reports against these digests.  A certifier digest covers the
whole report with ``timing`` dropped and keys sorted; a query digest covers
the sorted labels of c(a), c(b) and c(ab).  Seeded workloads are recorded
for seed 0; the other seeds still get the check and identity gates.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

SEED = 0
QUERIES = 1024


def record(name: str, count: int):
    if name == "thickline_verify":
        workloads.write_thickline(SEED)
    wl = workloads.make(name, SEED)
    wl.setup()
    digests = []
    for k in range(count):
        wl.prepare(k)
        ok, got, why = wl.check(k, wl.op(k))
        if not ok:
            raise SystemExit(f"{name} operation {k} fails: {why}")
        digests.append(got)
    wl.close()
    return digests


def main() -> int:
    table = {}
    for name in workloads.NAMES:
        key = "any" if name in workloads.SEED_FREE else str(SEED)
        if name == "cocycle_queries":
            table[name] = {key: record(name, QUERIES)}
        else:
            table[name] = {key: record(name, 1)[0]}
        print(f"{name}: recorded", file=sys.stderr)
    path = os.path.join(workloads.HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
