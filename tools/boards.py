"""The benchmark's boards, listed once for every measuring tool.

``boards(tree, workdir)`` yields ``(workload, rung, path)`` for each board
the workloads of ``perfbench/workloads.py`` read, in ``WORKLOADS`` order:
first ``tree``'s 17 bundled scenarios (``bundled_suite``, rung None), then
every board of the ``grid_ladder`` and ``sokoban_deep`` pools in
``perfbench/pool/`` (only read), by rung, each written to
``workdir/<name>.yaml``.

It imports ``perfbench/workloads.py`` and never ``grexplain``, so a tool
can list the boards before it picks the tree it loads ``grexplain`` from.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, bundled_paths, load_pool  # noqa: E402


def boards(tree: Path, workdir: Path):
    """(workload, rung, scenario path) of every board (module docstring)."""
    for name, workload in WORKLOADS.items():
        if not workload.rungs:
            for path in bundled_paths(tree):
                yield name, None, path
            continue
        for rung, entries in load_pool(name).items():
            for entry in entries:
                path = workdir / f"{entry['name']}.yaml"
                path.write_text(entry["scenario"])
                yield name, rung, path
