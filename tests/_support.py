"""Small helpers shared by the test suite: JSONL readers and schema
checks of whole files."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

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
