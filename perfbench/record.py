"""Record the digest of every result document of every workload, for each
seed of the fixed seed list.

Run from the repository root::

    python3 perfbench/record.py

Each instance goes through the same solve path as the benchmark; a
document is recorded only if ``verify`` passed.  The whole table is
rewritten, so every digest comes from one commit.  Record again only when a
change is meant to alter result documents, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from common import DIGESTS, RECORDED_SEEDS, digest, import_package, solve
from workloads import WORKLOADS


def record_seed(rank1dm, name: str, seed: int) -> list[str]:
    digests = []
    for index, text in enumerate(WORKLOADS[name].build(seed)):
        _, out, passed = solve(rank1dm, text)
        if not passed:
            raise SystemExit(f"{name} seed {seed} instance {index}: verify FAIL")
        digests.append(digest(out))
    return digests


def write_table(table: dict):
    """One line per (workload, seed), so a re-recording diffs readably."""
    blocks = []
    for name in sorted(table):
        rows = ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(table[name][seed])}"
            for seed in sorted(table[name], key=int)
        )
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


def main() -> int:
    rank1dm = import_package()
    table = {}
    for name in WORKLOADS:
        for seed in range(RECORDED_SEEDS):
            table.setdefault(name, {})[str(seed)] = record_seed(rank1dm, name, seed)
            print(f"{name} seed {seed}: {len(table[name][str(seed)])} documents", flush=True)
    write_table(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
