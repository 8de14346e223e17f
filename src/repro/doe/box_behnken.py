"""Box-Behnken design — the classic three-level alternative to CCD.

Box-Behnken designs estimate the same quadratic response surface as CCD
without any corner or extreme points: runs sit at the midpoints of the
parameter-space edges (every pair of parameters at low/high, the rest
central) plus centre replicates.  Useful when the extreme corner
configurations are expensive or invalid — at the cost of never observing
the extremes, which is exactly the trade-off the DoE ablation can expose.
"""

from __future__ import annotations

import itertools

from ..errors import DoEError
from .space import ParameterSpace


def box_behnken(
    space: ParameterSpace, *, center_replicates: int | None = None
) -> list[dict[str, float]]:
    """The Box-Behnken configurations of a parameter space.

    For ``k`` parameters: ``4 * C(k, 2)`` edge-midpoint runs plus
    ``center_replicates`` centre runs (default ``2k - 1``, matching our
    CCD convention).  Requires ``k >= 2``.
    """
    k = len(space)
    if k < 2:
        raise DoEError("Box-Behnken needs at least two parameters")
    if center_replicates is None:
        center_replicates = 2 * k - 1
    if center_replicates < 1:
        raise DoEError("center_replicates must be >= 1")
    configs: list[dict[str, float]] = []
    names = space.names
    for a, b in itertools.combinations(range(k), 2):
        for la, lb in itertools.product(("low", "high"), repeat=2):
            configs.append(
                space.config_at({names[a]: la, names[b]: lb})
            )
    for _ in range(center_replicates):
        configs.append(space.central())
    return configs

