"""Scalar construction loops and per-stage timing.

A handful of construction loops are irreducibly scalar — the trie-topology
stack loop and Kasai's LCP recurrence; they live here as plain Python over
numpy arrays.  ``engine()`` names the engine that runs them, so benchmark
reports and ``build --json`` record provenance.
"""

from __future__ import annotations

__all__ = [
    "engine",
    "record_stage",
    "collect_stages",
    "stage_timer",
]


def engine() -> str:
    """The kernel engine: always ``"python"``."""
    return "python"


from .timing import collect_stages, record_stage, stage_timer  # noqa: E402
