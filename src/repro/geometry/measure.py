"""The measuring facade used by the lower-bound engine and the AST verifier.

``measure_constraints`` decides how to measure the solution set of a
constraint set inside the unit cube:

* zero-dimensional sets are decided exactly,
* affine constraint sets are split into independent variable blocks
  (:func:`repro.geometry.linear.independent_blocks`); univariate blocks are
  measured exactly with rational arithmetic, multivariate blocks up to a
  configurable dimension with the polytope oracle, and larger blocks with the
  certified subdivision sweep,
* non-affine constraint sets fall back to the sweep (sound lower bound).

The sweep has a single regime -- pure dyadic bisection of the unit cube
with exact integer mass (:mod:`repro.geometry.sweep`) -- and
:class:`MeasureOptions` carries only its budgets, the kernel toggle and
the library-level reference knobs (``prefer_sweep``, ``block_sweep``).

The result records whether the returned value is exact or only a certified
lower bound, so callers (in particular the lower-bound engine, whose whole
purpose is soundness) can propagate that information.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from repro.intervals.interval import Interval
from repro.geometry.linear import (
    HalfSpace,
    halfspaces_from_constraints,
    independent_blocks,
    univariate_interval,
)
from repro.geometry.polytope import polytope_volume
from repro.geometry.stats import PerfStats
from repro.geometry.sweep import sweep_measure
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.symbolic.constraints import ConstraintSet, remap_constraints

Number = Union[Fraction, float]


@dataclass(frozen=True)
class MeasureOptions:
    """Tuning knobs for the measuring facade.

    Instances are frozen and hashable: the measure engine keys its memo
    tables (and, stringified, the persistent cross-process stores) on them,
    so every field that can change a computed value must live here.
    """

    max_hull_dimension: int = 8
    """Largest block dimension handled by the polytope (convex hull) oracle."""

    sweep_depth: int = 14
    """Bisection depth of the certified sweep fallback."""

    prefer_sweep: bool = False
    """Force the sweep even for affine constraint sets (used by ablations)."""

    block_sweep: bool = True
    """Sweep non-affine sets block by block instead of jointly.

    Each connected variable block is swept in its own ``[0,1]^{d_i}`` box and
    the bounds combine as interval products, which provably tightens lower
    bounds at equal depth budget -- emitted (inexact) bounds therefore
    *change* when toggling this, unlike every other cache knob.  ``False``
    is a library-only reference configuration (the joint sweep) that tests
    and benchmarks compare against; no CLI flag selects it.
    """

    sweep_target_gap: Number = Fraction(0)
    """Stop refining once the undecided volume is at most this (0 = never)."""

    sweep_max_boxes: Optional[int] = None
    """Cap on boxes examined per sweep (``None`` = depth budget only)."""

    sweep_kernel: bool = True
    """Classify sweep boxes in chunks through the vectorized numpy kernel.

    The kernel is a pure classifier whose results are bit-identical to the
    scalar path (see :mod:`repro.geometry.sweep`), so this knob -- unlike
    ``block_sweep`` -- never changes a computed value and is deliberately
    *excluded* from persistent store keys.  ``--no-sweep-kernel`` restores
    the scalar loop; sets the kernel cannot compile fall back per set.
    """


@dataclass(frozen=True)
class MeasureResult:
    """A measure together with its provenance."""

    value: Number
    exact: bool
    lower_bound: bool
    method: str

    upper: Optional[Number] = None
    """A certified upper bound accompanying an inexact lower bound, when one
    is known (sweep-derived results carry ``lower + undecided``)."""

    def as_float(self) -> float:
        return float(self.value)

    def certified_upper(self) -> Number:
        """The tightest certified upper bound this result can vouch for.

        Exact results are their own upper bound; inexact ones fall back to
        the recorded sweep upper, or to 1 (the whole cube) when none exists.
        """
        if self.exact and not self.lower_bound:
            return self.value
        if self.upper is not None:
            return self.upper
        return Fraction(1)


def measure_constraints(
    constraints: ConstraintSet,
    dimension: int,
    options: Optional[MeasureOptions] = None,
    registry: Optional[PrimitiveRegistry] = None,
    argument: Optional[Interval] = None,
    stats: Optional[PerfStats] = None,
) -> MeasureResult:
    """Measure the solution set of ``constraints`` inside ``[0, 1]^dimension``.

    ``stats``, when provided (the :class:`repro.geometry.engine.MeasureEngine`
    always does), accumulates sweep-box and polytope-invocation counters; it
    never affects the computed value.
    """
    options = options or MeasureOptions()
    registry = registry or default_registry()

    if dimension == 0:
        satisfied = constraints.satisfied_by({}, registry)
        value = Fraction(1) if satisfied else Fraction(0)
        return MeasureResult(value, exact=True, lower_bound=False, method="trivial")

    if constraints.contains_star():
        # The measure depends on an unknown recursive outcome; the only sound
        # answer usable as a lower bound is 0.
        return MeasureResult(Fraction(0), exact=False, lower_bound=True, method="unknown-star")

    halfspaces = None
    if not options.prefer_sweep and argument is None and not constraints.contains_argument():
        halfspaces = halfspaces_from_constraints(constraints, registry)

    if halfspaces is None:
        if stats is not None:
            stats.block_computations += 1
        sweep = sweep_measure(
            constraints,
            dimension,
            max_depth=options.sweep_depth,
            registry=registry,
            argument=argument,
            stats=stats,
            target_gap=options.sweep_target_gap,
            max_boxes=options.sweep_max_boxes,
            use_kernel=options.sweep_kernel,
        )
        exact = sweep.undecided == 0
        return MeasureResult(
            sweep.lower,
            exact=exact,
            lower_bound=not exact,
            method="sweep",
            upper=None if exact else sweep.upper,
        )

    total: Number = Fraction(1)
    exact = True
    methods = set()
    for variables, block_halfspaces in independent_blocks(dimension, halfspaces):
        if stats is not None and block_halfspaces:
            stats.block_computations += 1
        block_value, block_exact, method = _measure_block(
            variables, block_halfspaces, constraints, options, registry, stats
        )
        methods.add(method)
        total = total * block_value
        exact = exact and block_exact
        if total == 0:
            break
    method = "+".join(sorted(methods)) if methods else "trivial"
    return MeasureResult(total, exact=exact, lower_bound=not exact, method=method)


def _measure_block(variables, halfspaces, constraints, options, registry, stats=None):
    """Measure one independent block; returns (value, exact, method)."""
    if not variables:
        # Only constant half spaces: 1 if all hold, 0 otherwise.
        if any(h.is_trivially_false() for h in halfspaces):
            return Fraction(0), True, "constant"
        return Fraction(1), True, "constant"
    if len(variables) == 1 and all(len(h.variables()) <= 1 for h in halfspaces):
        bounds = univariate_interval(variables[0], halfspaces)
        if bounds is None:
            return Fraction(0), True, "interval"
        lo, hi = bounds
        return hi - lo, True, "interval"
    if len(variables) <= options.max_hull_dimension:
        remapping = {variable: position for position, variable in enumerate(variables)}
        remapped = [
            HalfSpace(
                tuple(
                    sorted((remapping[index], coefficient) for index, coefficient in h.coefficients)
                ),
                h.bound,
                h.strict,
            )
            for h in halfspaces
        ]
        if len(variables) == 2:
            from repro.geometry.polytope import polygon_area_exact

            area = polygon_area_exact(remapped)
            if area is not None:
                return area, True, "polygon"
        if stats is not None:
            stats.polytope_calls += 1
        value = polytope_volume(len(variables), remapped)
        return value, False, "polytope"
    # Large multivariate block: certified sweep restricted to the block's
    # constraints (other blocks are measured separately).
    block_constraints = ConstraintSet(
        constraint
        for constraint in constraints
        if constraint.variables() & set(variables) or not constraint.variables()
    )
    remapped_constraints, block_dimension = _remap_constraints(block_constraints, variables)
    sweep = sweep_measure(
        remapped_constraints,
        block_dimension,
        max_depth=options.sweep_depth,
        registry=registry,
        stats=stats,
        target_gap=options.sweep_target_gap,
        max_boxes=options.sweep_max_boxes,
        use_kernel=options.sweep_kernel,
    )
    exact = sweep.undecided == 0
    return sweep.lower, exact, "sweep"


def _remap_constraints(constraints: ConstraintSet, variables):
    """Renumber the variables of a block to ``0..len(variables)-1``."""
    return remap_constraints(constraints, variables), len(variables)
