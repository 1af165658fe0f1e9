"""Reproducible experiment runners, one per acceptance family."""

from __future__ import annotations

from typing import Callable

from .report import RunReport
from . import claims, dimension, evolve, gauss, maximal

RUNNERS: dict[str, Callable[[dict, int], RunReport]] = {
    "gauss": gauss.run,
    "evolve": evolve.run,
    "claims": claims.run,
    "dimension": dimension.run,
    "maximal": maximal.run,
}
