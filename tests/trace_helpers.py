"""Reading back what ``--trace-out`` wrote."""

import json


def read_jsonl(path: str) -> list[dict]:
    """Load a JSONL trace (as written by ``TraceRecorder.export_jsonl``);
    :mod:`repro.obs.analyze` takes the dicts as it takes live events."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
