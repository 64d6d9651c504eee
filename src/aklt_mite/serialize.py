"""Small shared output helpers."""

from __future__ import annotations

import hashlib
import json


def config_hash(payload: dict) -> str:
    """Stable short hash of the science-relevant configuration."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
