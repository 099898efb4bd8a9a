"""Registry mapping reduction names (and ``+``-joined chains) to objects."""

from __future__ import annotations

from . import instances as I
from .errors import ValidationError
from .numeric import NUMERIC_REDUCTIONS
from .pipeline import PIPELINE_REDUCTIONS
from .reductions import Reduction, chain, identity_reduction
from .satred import SAT_REDUCTIONS

REDUCTIONS: dict[str, Reduction] = {
    r.name: r for r in NUMERIC_REDUCTIONS + PIPELINE_REDUCTIONS +
    SAT_REDUCTIONS + tuple(map(identity_reduction, I.KINDS))
}


def get_reduction(spec: str) -> Reduction:
    """Look up a reduction, or build a chain from ``first+second+...``."""
    parts = [p.strip() for p in spec.split("+") if p.strip()]
    if not parts:
        raise ValidationError("empty reduction spec")
    picked = []
    for part in parts:
        if part not in REDUCTIONS:
            raise ValidationError(
                f"unknown reduction {part!r}; known: {', '.join(sorted(REDUCTIONS))}")
        picked.append(REDUCTIONS[part])
    # ``compose`` refuses a link whose kinds do not meet
    return picked[0] if len(picked) == 1 else chain(*picked, name=spec)
