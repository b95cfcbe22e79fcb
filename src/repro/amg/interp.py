"""One interpolation scheme per family: the one reader of ``config.interp``.

:func:`interp_scheme` maps the family plus ``aggressive_levels`` to a
frozen :class:`InterpScheme` for one level.  The sequential build calls
``scheme.build``, refresh calls the ``scheme.numeric`` its ``LevelPlan``
captured, plan capture refuses exactly the schemes whose ``numeric`` is
None, and :mod:`repro.dist.setup` keys its kernel table on the schemes.
"extended+i" and "classical" (its distance-one case) run through an
:class:`~repro.amg.interp_extended.ExtIPlan`; "direct" replays its cheap
build on refresh; "2s-ei" and "multipass" coarsen aggressively on the top
``aggressive_levels`` levels (extended+i below) and have no numeric path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import AMGConfig
from ..perf.counters import IDX_BYTES, PTR_BYTES, VAL_BYTES, collect, count
from ..sparse.csr import CSRMatrix
from .interp_classical import _classical_symbolic
from .interp_direct import direct_interpolation
from .interp_extended import (
    ExtIPlan,
    _same_pattern,
    extended_i_symbolic,
    plan_interpolation,
    plan_numeric,
)
from .interp_multipass import multipass_interpolation
from .interp_twostage import two_stage_extended_i
from .truncation import truncate_interpolation

__all__ = ["InterpScheme", "interp_scheme", "EXTENDED_I", "CLASSICAL",
           "DIRECT", "TWO_STAGE_EI", "MULTIPASS"]


@dataclass(frozen=True)
class InterpScheme:
    """How one level interpolates: ``build(A, S, cf, cf_stage1, config) ->
    (P, plan | None)`` (truncated as ``flags.fused_truncation`` says) and
    ``numeric(plan, A, S, cf, pattern, config) -> P | None`` (None on
    pattern drift), itself None for families with no numeric path."""

    name: str
    #: whether this level coarsens with aggressive PMIS (``cf_stage1`` set)
    aggressive: bool
    build: Callable[..., tuple[CSRMatrix, ExtIPlan | None]]
    numeric: Callable[..., CSRMatrix | None] | None


def _truncation(config: AMGConfig) -> dict:
    return dict(trunc_fact=config.trunc_fact, max_elmts=config.max_elmts,
                fused_truncation=config.flags.fused_truncation)


def _planned(symbolic):
    """Build through a frozen :class:`ExtIPlan` (extended+i, classical)."""
    def build(A, S, cf, cf_stage1, config):
        plan = symbolic(A, S, cf)
        return plan_interpolation(
            plan, A, reordered=config.flags.three_way_partition,
            **_truncation(config)), plan
    return build


def _planned_numeric(plan, A, S, cf, pattern, config):
    return plan_numeric(plan, A, pattern, **_truncation(config))


def _direct(A, S, cf, cf_stage1, config):
    return truncate_interpolation(
        direct_interpolation(A, S, cf), config.trunc_fact, config.max_elmts,
        fused=config.flags.fused_truncation), None


def _direct_numeric(plan, A, S, cf, pattern, config):
    """Replays the cheap distance-one build silently (nothing worth
    freezing); only the record is numeric-only, with zero branches.  The
    pattern is value-dependent, so a sign change can cause drift."""
    with collect():
        P, _ = _direct(A, S, cf, None, config)
    if not _same_pattern(P, pattern):
        return None
    count(
        "interp.direct.numeric_only",
        flops=4 * A.nnz + 2 * P.nnz,
        bytes_read=A.nnz * (VAL_BYTES + IDX_BYTES) + (A.nrows + 1) * PTR_BYTES
        + P.nnz * IDX_BYTES,
        bytes_written=P.nnz * VAL_BYTES,
        branches=0.0,
    )
    return P


def _two_stage(A, S, cf, cf_stage1, config):
    return two_stage_extended_i(
        A, S, cf, cf_stage1,
        theta=config.strength_threshold, max_row_sum=config.max_row_sum,
        reordered=config.flags.three_way_partition, **_truncation(config),
    ), None


def _multipass(A, S, cf, cf_stage1, config):
    return multipass_interpolation(A, S, cf, **_truncation(config)), None


EXTENDED_I = InterpScheme("extended+i", False,
                          _planned(extended_i_symbolic), _planned_numeric)
CLASSICAL = InterpScheme("classical", False,
                         _planned(_classical_symbolic), _planned_numeric)
DIRECT = InterpScheme("direct", False, _direct, _direct_numeric)
TWO_STAGE_EI = InterpScheme("2s-ei", True, _two_stage, None)
MULTIPASS = InterpScheme("multipass", True, _multipass, None)

#: family -> (scheme on the aggressive top levels, scheme below them)
_FAMILIES = {
    s.name: (s, EXTENDED_I if s.aggressive else s)
    for s in (EXTENDED_I, CLASSICAL, DIRECT, TWO_STAGE_EI, MULTIPASS)
}


def interp_scheme(config: AMGConfig, level: int) -> InterpScheme:
    """The scheme level *level* of a build under *config* interpolates with.

    Raises ValueError, naming the known families, for an unknown
    ``config.interp``.
    """
    try:
        top, deeper = _FAMILIES[config.interp]
    except KeyError:
        raise ValueError(
            f"unknown interpolation {config.interp!r}; known: "
            + ", ".join(map(repr, _FAMILIES))) from None
    return top if level < config.aggressive_levels else deeper
