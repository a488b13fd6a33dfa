"""Canonical JSON / CSV emission: reports must be byte-reproducible."""

import csv
import json


def canonical_json(obj):
    """Stable serialization: sorted keys, fixed separators, repr floats."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(v):
    return repr(float(v)) if isinstance(v, float) else v
