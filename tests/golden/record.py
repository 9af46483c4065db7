"""Re-record the golden schedule corpus: ``python -m tests.golden.record``.

Runs every cell of :mod:`tests.golden.cells` on the pure backend,
traced where the cell is replayed traced, rewrites ``schedules.json``
from the result and prints each cell whose entry moved (or is new, or
gone).  This is the file's only writer: a change that moves a cell
names every moved cell in CHANGES.md.
"""

import json
from pathlib import Path

from tests.golden.cells import CELLS, observe

PATH = Path(__file__).with_name("schedules.json")


def record() -> dict:
    return {cell.name: observe(cell, traced=cell.traced)[0] for cell in CELLS}


def main() -> None:
    old = json.loads(PATH.read_text()) if PATH.exists() else {}
    new = record()
    for name, entry in new.items():
        if old.get(name) != entry:
            print(("moved " if name in old else "new   ") + name)
    for name in old.keys() - new.keys():
        print("gone  " + name)
    PATH.write_text(json.dumps(new, indent=1) + "\n")
    print(f"{PATH.name}: {len(new)} cells")


if __name__ == "__main__":
    main()
