"""Regenerate the stored references that ``run.py`` checks outputs against.

    python3 perfbench/make_reference.py

Writes ``reference/mc.json`` (the integer tallies of each mc grid at the
reference seed and the warm-up replication count) and
``reference/analyze_wide.json`` (effects and covariance of the reference
seed's wide dataset).  Run it only for a deliberate change of the program's
results or of the workloads, and say why in the change.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

from rankeffect.cli import main  # noqa: E402


def write(name: str, doc: dict) -> None:
    run.REFERENCE.mkdir(exist_ok=True)
    (run.REFERENCE / name).write_text(json.dumps(doc, indent=1) + "\n")


with tempfile.TemporaryDirectory() as tmp_name:
    tmp = Path(tmp_name)
    grids = {}
    for name in run.MC_GRIDS:
        for grid in run.MC_GRIDS[name]:
            stem = tmp / grid
            if main(["simulate", "--builtin", grid, "--reps", str(run.WARM_UP_REPS),
                     "--seed", str(run.REFERENCE_SEED), "--output", str(stem)]) != 0:
                sys.exit(f"simulate {grid} failed")
            grids[grid] = {"reps": run.WARM_UP_REPS, "tallies": run.tally_view(
                json.loads(Path(f"{stem}.json").read_text())
            )}
    write("mc.json", {"seed": run.REFERENCE_SEED, "grids": grids})

    csv = tmp / "wide.csv"
    run.write_wide_csv(*run.wide_dataset(run.REFERENCE_SEED), csv)
    out = tmp / "wide.json"
    if main(["analyze", str(csv), "--output", str(out)]) != 0:
        sys.exit("analyze of the wide dataset failed")
    write("analyze_wide.json", {
        "seed": run.REFERENCE_SEED,
        "methods": run.wide_reference_view(json.loads(out.read_text())),
    })
