"""Command output without its run manifest.

Kept free of ``banach_gauge`` and numpy imports so that the worker can use
it before the program is imported.
"""

from __future__ import annotations

import json


def stable_output(text: str):
    """Parsed output without the run manifest, which records the wall time.

    Raises ``ValueError`` when the output is not JSON.
    """
    obj = json.loads(text)
    if isinstance(obj, dict):
        obj.pop("manifest", None)
    return obj
