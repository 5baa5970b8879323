"""Replayable programs pinned by goldens.

``goldens/program_goldens.json`` holds, per cell, the step count of
``compile_program`` on a fast-budget search's winner and a digest of its
step list with every float written as hex, so a program that moves one
step, one byte count or one last bit of a float fails its cell. The
cells cover the zoo models whose programs exercise every step kind
(resharding, all-reduce, SS rotation, halo, compute, boundary, host
input, weight stream) with weights resident and streamed.

The goldens were recorded before program emission moved onto the
memoized set walk and must replay unchanged; re-record them only for a
change meant to alter programs, by running this module as a script::

    PYTHONPATH=src python -m tests.core.test_program_goldens
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core import Mars
from repro.core.evaluator import EvaluatorOptions
from repro.core.ga import SearchBudget
from repro.dnn import build_model
from repro.system import f1_16xlarge
from repro.utils.rng import stable_digest

GOLDENS_PATH = Path(__file__).parent / "goldens" / "program_goldens.json"

MODELS = ("tiny_cnn", "squeezenet", "alexnet", "resnet34")
WEIGHTS = {"resident": True, "streamed": False}
SEED = 0


def _cells() -> list[str]:
    return [f"{model}/weights={w}" for model in MODELS for w in WEIGHTS]


def _field(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return [_field(v) for v in value]
    return value


def _step_record(step) -> list:
    """A step as its class name and fields, floats as hex."""
    return [type(step).__name__] + [
        _field(getattr(step, f.name)) for f in fields(step)
    ]


def _program(cell: str):
    model, weights = cell.split("/")
    options = EvaluatorOptions(
        weights_resident=WEIGHTS[weights.removeprefix("weights=")]
    )
    with Mars(
        build_model(model),
        f1_16xlarge(),
        budget=SearchBudget.fast(),
        options=options,
    ) as mars:
        return mars.compile_program(mars.search(seed=SEED))


def _golden_cell(program) -> dict:
    records = [_step_record(step) for step in program.steps]
    return {
        "steps": len(records),
        "digest": stable_digest(json.dumps(records)),
    }


@pytest.mark.parametrize("cell", _cells())
def test_program_matches_golden(cell):
    golden = json.loads(GOLDENS_PATH.read_text())
    assert _golden_cell(_program(cell)) == golden["cells"][cell]


if __name__ == "__main__":
    cells = {cell: _golden_cell(_program(cell)) for cell in _cells()}
    GOLDENS_PATH.write_text(
        json.dumps(
            {
                "budget": "fast",
                "system": "f1_16xlarge",
                "seed": SEED,
                "cells": cells,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
