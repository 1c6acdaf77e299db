"""CSV and JSON output helpers shared by the command-line subcommands.

CSV bodies are deterministic: '.' decimal separator, no locale, 12
significant digits, fixed row order.  Every run also writes a JSON metadata
sidecar embedding the tool version, the fully resolved configuration, seed,
cutoffs and checks, so results are reproducible byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path


def format_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def write_csv(path, header: list[str], rows: list[tuple]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_coerce) + "\n")


def _coerce(obj):
    import numpy as np

    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def sidecar_path(out_path) -> Path:
    out_path = Path(out_path)
    return out_path.with_suffix(out_path.suffix + ".meta.json")
