#!/usr/bin/env python3
"""Build the bounds table and write it out as text and JSON.

The text form is the diffable grid (lower-upper per cell, single number when
they meet); the JSON form carries the same numbers plus per-cell provenance.
Rerunning with the same --nmax is byte-identical, so the artifacts can be
committed and diffed.
"""

import argparse
import json
import time
from pathlib import Path

from eaqec import BoundsTable, build_table


def write_table(table: BoundsTable, out: Path) -> tuple[Path, Path]:
    """Write ``bounds_table_n<nmax>.txt`` and ``.json`` into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    text_path = out / f"bounds_table_n{table.n_max}.txt"
    json_path = out / f"bounds_table_n{table.n_max}.json"
    text_path.write_text(table.to_text())
    json_path.write_text(json.dumps(table.to_json_dict(), indent=2, sort_keys=True) + "\n")
    return text_path, json_path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--nmax", type=int, default=15, help="largest qubit count (default: 15)"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("artifacts"),
        help="output directory (default: ./artifacts)",
    )
    args = parser.parse_args()

    start = time.time()
    table = build_table(args.nmax)
    elapsed = time.time() - start

    text_path, json_path = write_table(table, args.out)

    settled = sum(1 for cell in table.cells if cell.lower == cell.upper)
    print(f"built {len(table.cells)} cells up to n={args.nmax} in {elapsed:.1f}s")
    print(f"{settled} cells settled (lower == upper), {len(table.cells) - settled} open")
    print(f"wrote {text_path} and {json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
