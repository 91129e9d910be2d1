#!/usr/bin/env python3
"""The largest change per column of every CLI output CSV that differs
between two checkouts.

    python3 scripts/cli_deltas.py BASE [HEAD]

BASE and HEAD are checkouts of the repository (HEAD defaults to the one
this script sits in).  Every run of ``cli_digests.RUNS`` is made against
each checkout's ``src/``, in a temporary directory, at one worker with BLAS
pinned to one thread (the pinned pass of ``cli_digests.py``).  For each
CSV whose bytes differ, one line per changed column gives the largest
absolute change |head − base|, the largest relative change
|head − base| / |base| over its rows, that largest absolute change over
the column's largest |base| (a cell near 0 inflates the relative change,
not this one), and how many rows changed; a
non-numeric cell that changes is counted, not measured.  A run that fails
on one side, or a CSV whose header or row count changed, is reported as
such.  Manifests are not compared: they hash the CSVs.

Exits 0 once every run has been compared, even when outputs differ.
Uses the standard library only.
"""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cli_digests import RUNS, _write_models  # noqa: E402


def _outputs(checkout: Path, workdir: Path) -> dict[str, bytes | None]:
    """Run RUNS against ``checkout``/src in ``workdir``; return {CSV name:
    bytes}, None for a run that failed."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), HMIX_WORKERS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    _write_models(workdir)
    out = {}
    for name, args in RUNS:
        cmd = [sys.executable, "-m", "horomix.cli", *args, "--out", name]
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True)
        path = workdir / name
        out[name] = path.read_bytes() if done.returncode == 0 and path.exists() else None
    return out


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def column_deltas(base: str, head: str) -> list[str]:
    """Report lines for two CSV texts: one per column that changed."""
    rows_b, rows_h = list(csv.reader(base.splitlines())), list(csv.reader(head.splitlines()))
    if not rows_b or not rows_h or rows_b[0] != rows_h[0] or len(rows_b) != len(rows_h):
        return [f"  header or row count changed: {len(rows_b)} -> {len(rows_h)} lines"]
    lines = []
    for col, title in enumerate(rows_b[0]):
        pairs = [(b[col], h[col]) for b, h in zip(rows_b[1:], rows_h[1:]) if b[col] != h[col]]
        if not pairs:
            continue
        abs_max = rel_max = 0.0
        text = 0
        for b, h in pairs:
            x, y = _number(b), _number(h)
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                text += 1
                continue
            abs_max = max(abs_max, abs(y - x))
            rel_max = max(rel_max, abs(y - x) / abs(x) if x else math.inf)
        line = f"  {title}: {len(pairs)}/{len(rows_b) - 1} rows"
        if len(pairs) > text:
            numbers = (_number(b[col]) for b in rows_b[1:])
            scale = max(abs(x) for x in numbers if x is not None and math.isfinite(x))
            line += f", max abs {abs_max:.3g}, max rel {rel_max:.3g}"
            line += f", max abs/max|base| {abs_max / scale if scale else math.inf:.3g}"
        if text:
            line += f", {text} non-numeric"
        lines.append(line)
    return lines


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print("usage: python3 scripts/cli_deltas.py BASE [HEAD]", file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent.parent
    base = Path(argv[1]).resolve()
    head = Path(argv[2]).resolve() if len(argv) == 3 else here
    results = []
    for checkout in (base, head):
        with tempfile.TemporaryDirectory(prefix="cli-deltas-") as tmp:
            results.append(_outputs(checkout, Path(tmp)))
    changed = 0
    for name, _ in RUNS:
        b, h = results[0][name], results[1][name]
        if b == h and b is not None:
            continue
        changed += 1
        print(name)
        if b is None or h is None:
            side = "both sides" if b == h else "the base side" if b is None else "the head side"
            print(f"  run failed on {side}")
        else:
            for line in column_deltas(b.decode(), h.decode()):
                print(line)
    print(f"{changed} of {len(RUNS)} CSVs differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
