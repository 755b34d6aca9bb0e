"""Write ``golden_catalog.json``, the catalog golden table.

Run from the repository root::

    PYTHONPATH=src python tests/world/regen_golden.py

Each row is computed in a fresh interpreter (a spawned worker that runs
one row and exits), so no row depends on worlds run before it.  The file
holds one row per line, in :func:`test_catalog_golden.row_keys` order, so
its diff names every row that moved.
"""

from __future__ import annotations

import json
import multiprocessing

from test_catalog_golden import GOLDEN, fingerprint, row_keys


def _row(key: tuple[str, int, dict]) -> dict:
    entry, seed, params = key
    params = dict(sorted(params.items()))
    return {"entry": entry, "seed": seed, "params": params, **fingerprint(*key)}


def main() -> None:
    with multiprocessing.get_context("spawn").Pool(2, maxtasksperchild=1) as pool:
        rows = pool.map(_row, row_keys(), chunksize=1)
    lines = ",\n".join(json.dumps(row) for row in rows)
    GOLDEN.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")


if __name__ == "__main__":
    main()
