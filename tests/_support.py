"""Small helpers shared by the test suite: JSONL readers and schema
checks of whole files, and the mass distribution the training loss
builds from scores."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import numpy as np

from orientsemi.consistency import GlobalDistribution
from orientsemi.records import load_schema


def read_records(path: Path) -> Iterator[dict]:
    for line in Path(path).read_text().splitlines():
        if line:
            yield json.loads(line)


def validate_file(path: Path, schema_name: str) -> int:
    """Validate every line of a JSONL file; returns the record count."""
    import jsonschema

    validator = jsonschema.Draft202012Validator(load_schema(schema_name))
    count = 0
    for record in read_records(path):
        validator.validate(record)
        count += 1
    return count


def mass_distribution(positions: np.ndarray, scores: np.ndarray) -> GlobalDistribution:
    """Mass ``exp(score)`` at each position, as ``consistency_loss``
    builds both of its distributions."""
    return GlobalDistribution(np.exp(scores), positions, scores)


def class_distributions(
    positions: np.ndarray, teacher_rows: np.ndarray, student_rows: np.ndarray
) -> tuple[GlobalDistribution, GlobalDistribution]:
    """Teacher and student distributions read from per-position class
    score rows at each teacher row's argmax class."""
    at = np.arange(teacher_rows.shape[0])
    class_index = np.argmax(teacher_rows, axis=1)
    return (
        mass_distribution(positions, teacher_rows[at, class_index]),
        mass_distribution(positions, student_rows[at, class_index]),
    )
