"""The canonical report digest by a deep JSON round trip of the report: a
reference for ``pipeline.canonical_digest``, which copies only the levels it
edits.  Test-only."""

import hashlib
import json


def canonical_digest(report: dict) -> str:
    """Digest of the report with timing fields zeroed (platform independent)."""
    clone = json.loads(json.dumps(report))
    for stage in clone.get("stages", []):
        for step in stage.get("steps", []):
            step["timing_ms"] = 0
    clone.pop("canonical_digest", None)
    return hashlib.sha256(json.dumps(clone, sort_keys=True).encode()).hexdigest()
