"""Line-delimited record IO with bundled schemas.

Every artifact this package writes as ``*.jsonl`` uses one JSON object
per line with sorted keys and compact separators, so identical runs
produce byte-identical files.  The schema files under
``orientsemi/schemas/`` describe each record kind; ``validate_record``
checks a parsed record against one (requires the optional ``jsonschema``
package).

Every file the package writes goes through one of two writers:
:func:`write_atomic` replaces a file, :func:`append_records` appends.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Sequence

_SCHEMA_DIR = Path(__file__).parent / "schemas"

SCHEMA_NAMES = ("metrics", "pseudo", "eval", "study", "ot_bench", "iou_curve")


def canonical_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _lines(records: Iterable[dict]) -> bytes:
    return "".join(canonical_line(r) + "\n" for r in records).encode()


def write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` by ``data`` through a sibling temp file, so a
    write that fails part-way leaves the previous file whole.

    The temp file is flushed to disk before the rename and the directory
    after it, so a power loss leaves either the old file or the new one,
    never an empty one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def write_records(path: Path, records: Sequence[dict]) -> int:
    """Replace ``path`` by ``records`` as canonical JSONL through
    :func:`write_atomic`, creating its parent directory; returns the
    number written."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, _lines(records))
    return len(records)


def append_records(path: Path, records: Iterable[dict]) -> None:
    """Append ``records`` to ``path`` as canonical JSONL and flush them to
    disk before returning, so a caller that next writes a file depending
    on them (a checkpoint) never finds it ahead of them."""
    with open(path, "ab") as handle:
        handle.write(_lines(records))
        handle.flush()
        os.fsync(handle.fileno())


def schema_path(name: str) -> Path:
    if name not in SCHEMA_NAMES:
        raise KeyError(f"unknown schema {name!r}; available: {SCHEMA_NAMES}")
    return _SCHEMA_DIR / f"{name}.schema.json"


def load_schema(name: str) -> dict:
    return json.loads(schema_path(name).read_text())


def validate_record(record: dict, schema_name: str) -> None:
    """Raise if the record does not satisfy the named schema."""
    import jsonschema

    jsonschema.validate(record, load_schema(schema_name))

