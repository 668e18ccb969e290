"""The verdict tables of `all` and `all preset=perturbed` at seed 1, pinned.

tests/data holds the two CSV bodies below the timestamp line, as the command
line writes them with one OpenBLAS thread:

    OPENBLAS_NUM_THREADS=1 conical-lab all --set seed=1
    OPENBLAS_NUM_THREADS=1 conical-lab all --set seed=1 --set preset=perturbed

Each run is repeated in process and compared row by row: the same rows in
the same order, equal experiment, parameters, provenance and verdict, and
every number within RTOL relative, with NaN equal to NaN. A change that
moves a value or a verdict by design rewrites the pinned file and lists the
moved rows in CHANGES.md.
"""

import csv
import io
import math
from pathlib import Path

import pytest

from conical_lab import vericli

DATA = Path(__file__).resolve().parent / "data"

# the same config runs with one and with two BLAS threads moved three
# perturbed rows by at most 8.4e-16 relative; values are compared far above
# that floor and far below any change a verdict could rest on
RTOL = 1e-9
EXACT = ("experiment", "param_json", "provenance", "verdict")
NUMERIC = ("measured", "reference", "tolerance")


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def compare_tables(got, want, rtol=RTOL):
    """Messages for every row of got that differs from want (lists of CSV
    row dicts); empty when the tables agree."""
    if len(got) != len(want):
        return [f"{len(got)} rows, pinned {len(want)}"]
    bad = []
    for k, (g, w) in enumerate(zip(got, want)):
        for key in EXACT:
            if g[key] != w[key]:
                bad.append(f"row {k} {key}: {g[key]!r}, pinned {w[key]!r}")
        for key in NUMERIC:
            a, b = float(g[key]), float(w[key])
            if math.isnan(a) and math.isnan(b):
                continue
            if not abs(a - b) <= rtol * max(abs(a), abs(b)):
                bad.append(f"row {k} {key}: {a!r}, pinned {b!r}")
    return bad


@pytest.mark.parametrize("pinned, overrides", [
    ("all_seed1.csv", ["seed=1"]),
    ("all_perturbed_seed1.csv", ["seed=1", "preset=perturbed"]),
], ids=["laplace", "perturbed"])
def test_all_matches_pinned_table(pinned, overrides):
    table = vericli.run_all(vericli.ExperimentConfig.parse("", overrides))
    body = table.to_csv().split("\n", 1)[1]
    bad = compare_tables(_rows(body), _rows((DATA / pinned).read_text()))
    assert not bad, "\n".join(bad[:20])


def test_comparison_catches_a_flipped_verdict_and_a_moved_value():
    want = _rows((DATA / "all_perturbed_seed1.csv").read_text())
    assert not compare_tables(want, want)
    flipped = [dict(row) for row in want]
    k = next(i for i, row in enumerate(flipped) if row["verdict"] == "pass")
    flipped[k]["verdict"] = "fail"
    assert compare_tables(flipped, want)
    moved = [dict(row) for row in want]
    moved[0]["measured"] = repr(float(moved[0]["measured"]) * (1 + 1e-6))
    assert compare_tables(moved, want)
    nan = [dict(row) for row in want]
    k = next(i for i, row in enumerate(nan) if row["reference"] != "nan")
    nan[k]["reference"] = "nan"
    assert compare_tables(nan, want)
    assert compare_tables(want[:-1], want)
