"""Result persistence: any renderer's ``to_dict()`` as JSON, its runs as CSV."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

__all__ = ["save_json", "save_csv", "load_json"]


def save_json(result, path: Union[str, Path]) -> Path:
    """Write a result's ``to_dict()`` as JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
    return path


def load_json(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())


def save_csv(result, path: Union[str, Path]) -> Path:
    """Write a result's runs as CSV, one column per key any run has;
    returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = result.to_dict()["runs"]
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(dict.fromkeys(
            key for row in rows for key in row)))
        writer.writeheader()
        writer.writerows(rows)
    return path
