"""The level-1 partition catalogs pinned by goldens.

A level-1 genome picks its accelerator partition by index into
``candidate_partitions``, so a catalog that gains, loses or reorders one
partition changes every search on that system. ``goldens/
partition_goldens.json`` holds, per preset, the edge-removal stages and
the whole catalog in order, each partition written as its sets joined
by ``|`` (``"0,1|2,3"``).

The goldens were recorded while the components were still computed by
networkx and must replay unchanged; re-record them only for a change
meant to alter the catalogs, by running this module as a script::

    PYTHONPATH=src python -m tests.core_ga.test_partition_goldens
"""

import json
from functools import partial
from pathlib import Path

import pytest

from repro.core.ga import candidate_partitions, edge_removal_partitions
from repro.system import chiplet_mesh, f1_16xlarge, h2h_fixed_system

GOLDENS_PATH = Path(__file__).parent / "goldens" / "partition_goldens.json"

SYSTEMS = {
    "f1_16xlarge()": f1_16xlarge,
    "f1_16xlarge(num_groups=3, accelerators_per_group=2)": partial(
        f1_16xlarge, num_groups=3, accelerators_per_group=2
    ),
    "chiplet_mesh()": chiplet_mesh,
    "chiplet_mesh(rows=3, cols=3)": partial(chiplet_mesh, rows=3, cols=3),
    "h2h_fixed_system(1.0)": partial(h2h_fixed_system, 1.0),
    "h2h_fixed_system(10.0)": partial(h2h_fixed_system, 10.0),
}


def _render(partitions) -> list[str]:
    return [
        "|".join(",".join(map(str, acc_set)) for acc_set in partition)
        for partition in partitions
    ]


def _golden_cell(system: str) -> dict:
    topology = SYSTEMS[system]()
    return {
        "edge_removal": _render(edge_removal_partitions(topology)),
        "candidates": _render(candidate_partitions(topology)),
    }


@pytest.mark.parametrize("system", SYSTEMS)
def test_partitions_match_golden(system):
    golden = json.loads(GOLDENS_PATH.read_text())
    assert _golden_cell(system) == golden[system]


if __name__ == "__main__":
    GOLDENS_PATH.parent.mkdir(exist_ok=True)
    GOLDENS_PATH.write_text(
        json.dumps(
            {system: _golden_cell(system) for system in SYSTEMS},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
