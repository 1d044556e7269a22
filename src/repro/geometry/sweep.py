"""Certified measures by adaptive interval subdivision (the paper's sweep).

Section 7.1 describes the lower-bound prototype as "a simple sweep algorithm
to search for terminating interval traces by splitting the unit box".  This
module implements that sweep over an arbitrary constraint set: the unit box
is bisected, boxes on which interval evaluation *proves* all constraints are
added to the lower bound, boxes that provably violate some constraint are
discarded, and undecided boxes are refined until a budget is exhausted.  The
result is a pair of certified bounds

    lower  <=  Lebesgue measure of the solution set  <=  lower + undecided

valid for any constraint set built from interval-preserving primitives,
including the non-linear ones (``sig``, ``exp``) for which the polytope
oracle does not apply.

Refinement is *prioritized*: undecided boxes live on a max-heap ordered by
volume, so the split that can shrink the undecided gap the most always
happens first (each bisection is along the box's widest dimension, exactly
the split the old fixed-depth recursion performed).  The completeness
argument of Thm. 3.8 only needs the undecided volume to shrink -- it does
not mandate uniform-depth round-robin splitting -- which frees the budget
knobs:

* ``max_depth`` bounds the number of bisections along any branch (the
  classic knob; with only this set, the adaptive sweep examines exactly the
  boxes of the old depth-first sweep and returns bit-identical bounds --
  exact rational sums are order-independent),
* ``target_gap`` stops refining as soon as the total undecided volume drops
  to the target, so easy sets stop after a handful of boxes instead of
  exhausting the depth budget,
* ``max_boxes`` caps the number of boxes examined outright.

The subdivision is also branch-and-bound pruned: a constraint proven
``True`` on a box stays true on every sub-box (interval evaluation is
inclusion-monotone), so children only re-evaluate the constraints their
parent could not decide.  The pruning changes no verdicts -- a box's status
over the remaining constraints equals its status over the full set -- it
only skips redundant ``box_status`` evaluations, which are reported through
:class:`~repro.geometry.stats.PerfStats` and on :class:`SweepResult`.

Every box is a pure bisection of the unit cube, so its volume is *exactly*
``2**-depth``: the heap keys on the integer depth (order-isomorphic to
volume, ties broken by the push counter) and accepted/undecided mass
accumulates in integer numerators at scale ``2**max_depth``, materializing
the exact ``Fraction`` bounds only once at the end -- the same rational
values per-box ``Fraction`` sums would produce, bit for bit.

With ``use_kernel`` the traversal classifies boxes in *chunks* through the
vectorized tape of :mod:`repro.geometry.kernel` instead of one scalar
``box_status`` walk per box.  The chunking is a re-batching of the exact
scalar pop order -- a chunk only extends while the heap's top is at most
one depth level below the first popped box, and any child a chunk member
generates is at least one level deeper *and* has a later push counter, so
every chunk member precedes every such child in the scalar order too.  The
kernel only *classifies* (its outward-rounded float intervals enclose the
scalar ones, so its ``True``/``False`` verdicts imply the scalar verdicts;
its inward-rounded inner intervals certify lanes whose scalar verdict is
provably ``None``; every other lane is re-checked with the exact scalar
``box_status``); all accepted mass stays on the exact integer path.
Bounds, counters, frontiers and every persisted :class:`SweepResult` are
therefore bit-identical to the scalar sweep, and a set the kernel cannot
compile silently falls back.

:func:`sweep_measure` and :func:`sweep_accepted_boxes` share one traversal
core (:func:`_sweep`), so the accepted boxes witnessing a lower bound (the
raw material of the intersection type system's inference oracle, Sec. 4)
can never drift from the bound itself.

Depth-budgeted sweeps are *resumable*: with ``collect_frontier=True`` the
result carries a :class:`SweepFrontier` -- the undecided boxes the depth
budget stranded, each with its depth and the indices of the constraints it
could not decide -- and a deeper sweep can ``resume`` from that frontier
instead of re-bisecting everything the shallower budget already decided.
Because a box's verdict depends only on the box and its constraints, the
resumed sweep's bounds and work counters (``boxes_examined``,
``evaluations_saved``) are bit-identical to a from-scratch sweep at the
deeper budget; only ``heap_peak``, a diagnostic high-water mark of a
traversal order the resumed sweep never performs, is reported as the
maximum of the two runs' peaks.  Frontiers are only collected (and only
usable) for pure depth budgets -- an early-exited sweep's frontier would
not determine the deeper result.  :func:`encode_frontier` /
:func:`decode_frontier` give frontiers an exact JSON form so the batch
cache can persist them next to the sweep bounds, letting warm reruns
resume across processes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from repro.geometry import kernel as _kernel
from repro.geometry.stats import PerfStats
from repro.intervals.box import Box, unit_box
from repro.intervals.interval import Interval, float_pair
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.symbolic.constraints import Constraint, ConstraintSet

Number = Union[Fraction, float]

_KERNEL_CHUNK = 256
"""Default chunk size of the vectorized classification path.

Per-box numpy dispatch overhead keeps falling as chunks grow; 256 lanes is
where the curve flattens on the non-affine library while chunk arrays stay
a few kilobytes.  Any chunk size yields bit-identical results (the chunk is
always a prefix of the scalar pop order), so this is a pure speed knob.
"""

_KERNEL_WARMUP = 64
"""Boxes classified through the scalar loop before the kernel engages.

Tiny sweeps (converged blocks re-swept at a deeper budget, low-dimensional
factors) never amortize the tape compilation and the numpy per-op overhead
on chunks of a handful of lanes; they finish inside the warmup and never
touch numpy at all.  Classification is identical on both paths, so the
handoff point cannot affect results -- only speed.
"""


@dataclass(frozen=True)
class SweepFrontier:
    """The resumable state of a depth-budgeted sweep.

    Everything a deeper sweep needs to continue where a shallower budget
    stopped: the boxes the budget left undecided (each with its subdivision
    depth and the *indices* -- into the swept set's canonical constraint
    tuple -- of the constraints it could not decide), plus the accepted mass
    and work counters accumulated so far, so the resumed result reports
    cumulative numbers identical to a from-scratch run.  Constraint indices
    rather than constraints keep the frontier position-independent and
    JSON-serializable (:func:`encode_frontier`).
    """

    max_depth: int
    """The depth budget this frontier was stranded at."""

    lower: Number
    """Accepted mass up to ``max_depth`` (the shallow sweep's lower bound)."""

    boxes_examined: int
    evaluations_saved: int
    heap_peak: int
    boxes: Tuple[Tuple[Box, int, Tuple[int, ...]], ...]
    """``(box, depth, undecided-constraint indices)`` per stranded box."""


@dataclass(frozen=True)
class SweepResult:
    """Certified bounds produced by the subdivision sweep."""

    lower: Number
    undecided: Number
    boxes_examined: int
    evaluations_saved: int = 0
    """Per-constraint box evaluations skipped by branch-and-bound pruning."""

    early_exit: bool = False
    """Whether a ``target_gap`` / ``max_boxes`` budget stopped the sweep."""

    heap_peak: int = 0
    """Largest refinement frontier held during the sweep."""

    frontier: Optional[SweepFrontier] = None
    """The undecided-box frontier, when collected (pure depth budgets only)."""

    @property
    def upper(self) -> Number:
        """A certified upper bound on the measure."""
        return self.lower + self.undecided


def _dyadic_split(box: Box, depth: int) -> Tuple[Box, Box]:
    """Bisect a depth-``depth`` box of the sweep along its widest dimension.

    A depth-``k`` box of the round-robin bisection of the unit cube has its
    first ``k mod d`` dimensions one level narrower than the rest, so the
    first widest dimension -- the one :meth:`Box.widest_dimension` scans
    for -- is exactly ``k mod d``.  Computing it arithmetically (and the
    midpoint inline) skips the per-split width comparisons, and the halves
    are built without re-validating endpoints (``lo < mid < hi`` holds by
    construction and all three are already ``Fraction``): the produced
    ``Interval``/``Box`` values are identical to ``box.split()``'s -- both
    are plain frozen dataclasses over the same field values.

    The midpoint itself is assembled from integers: the split axis has
    been bisected ``splits = depth // d`` times, so it spans
    ``[c / 2**splits, (c + 1) / 2**splits]`` and its midpoint is
    ``(2c + 1) / 2**(splits + 1)`` -- an odd numerator over a power of
    two, hence already in lowest terms.  Writing the two integers into a
    raw ``Fraction`` skips the normalising ``gcd`` of ``(lo + hi) / 2``
    while producing the identical (value-equal, hash-equal) rational.
    """
    intervals = box.intervals
    dimension = len(intervals)
    axis = depth % dimension
    interval = intervals[axis]
    lo, hi = interval.lo, interval.hi
    splits = depth // dimension
    # c = lo * 2**splits; lo is reduced with a power-of-two denominator.
    shift = splits + 1 - (lo.denominator.bit_length() - 1)
    mid = object.__new__(Fraction)
    mid._numerator = (lo.numerator << shift) + 1
    mid._denominator = 1 << (splits + 1)
    left = object.__new__(Interval)
    object.__setattr__(left, "lo", lo)
    object.__setattr__(left, "hi", mid)
    right = object.__new__(Interval)
    object.__setattr__(right, "lo", mid)
    object.__setattr__(right, "hi", hi)
    prefix = intervals[:axis]
    suffix = intervals[axis + 1 :]
    low = object.__new__(Box)
    object.__setattr__(low, "intervals", prefix + (left,) + suffix)
    high = object.__new__(Box)
    object.__setattr__(high, "intervals", prefix + (right,) + suffix)
    return low, high


def _box_float_row(box: Box) -> Tuple[List[float], List[float]]:
    """Float endpoint rows of a box whose endpoints convert exactly."""
    return (
        [float(interval.lo) for interval in box.intervals],
        [float(interval.hi) for interval in box.intervals],
    )


def _undecided_constraints(
    active: Tuple[Constraint, ...],
    mapping: Dict[int, Interval],
    registry: PrimitiveRegistry,
    argument: Optional[Interval],
) -> Optional[Tuple[Constraint, ...]]:
    """Evaluate the active constraints on a box.

    Returns ``None`` when some constraint provably fails, and otherwise the
    tuple of constraints the box could not decide (empty means all proven).
    """
    undecided = []
    for constraint in active:
        status = constraint.box_status(mapping, registry, argument)
        if status is False:
            return None
        if status is None:
            undecided.append(constraint)
    return tuple(undecided)


def _sweep(
    constraints: ConstraintSet,
    dimension: int,
    max_depth: int,
    registry: Optional[PrimitiveRegistry],
    argument: Optional[Interval],
    stats: Optional[PerfStats],
    target_gap: Number,
    max_boxes: Optional[int],
    accepted: Optional[List[Box]],
    resume: Optional[SweepFrontier] = None,
    collect_frontier: bool = False,
    use_kernel: bool = False,
    kernel_chunk: int = _KERNEL_CHUNK,
    kernel_warmup: int = _KERNEL_WARMUP,
) -> SweepResult:
    """The shared traversal behind :func:`sweep_measure` and
    :func:`sweep_accepted_boxes`.

    When ``accepted`` is a list, every box on which all constraints provably
    hold is appended to it; the accepted volumes always sum to the returned
    lower bound, whatever budget stopped the sweep.

    With ``resume``, the refinement starts from the children of a shallower
    budget's stranded boxes instead of the unit box; the returned bounds and
    work counters fold the shallow run's in, so they equal a from-scratch
    sweep at ``max_depth`` (see the module docstring for the ``heap_peak``
    caveat).  Resuming assumes pure depth budgets on both sides and is
    incompatible with ``accepted`` (the shallow run's witnesses are gone).

    ``use_kernel`` routes classification through the vectorized chunk
    kernel when the set compiles (bit-identical results, see the module
    docstring).
    """
    registry = registry or default_registry()
    if dimension == 0:
        satisfied = constraints.satisfied_by({}, registry)
        if satisfied and accepted is not None:
            accepted.append(unit_box(0))
        value = Fraction(1) if satisfied else Fraction(0)
        if stats is not None:
            stats.sweep_boxes_examined += 1
        return SweepResult(value, Fraction(0), 1)
    if resume is not None and (
        accepted is not None or target_gap > 0 or max_boxes is not None
    ):
        raise ValueError(
            "a sweep can only resume a frontier under a pure depth budget, "
            "without collecting accepted boxes"
        )

    # Kernel compilation is deferred past a scalar warmup
    # (:data:`_KERNEL_WARMUP` boxes): sweeps that finish inside it never pay
    # for the tape or numpy dispatch on near-empty chunks.
    compiled = None
    kernel_pending = use_kernel and _kernel.kernel_available()

    # Heap entries are ``(depth, counter, box, active)``: the depth orders
    # boxes by volume (see the module docstring) and the push counter
    # breaks ties deterministically in insertion order.  Mass accumulates
    # in integer numerators at scale ``unit``; ``pending_scaled`` tracks
    # the mass still on the frontier so the gap test is O(1).
    unit = 1 << max_depth
    use_gap = target_gap > 0
    if use_gap:
        gap = target_gap if isinstance(target_gap, Fraction) else Fraction(target_gap)
        gap_num = gap.numerator << max_depth
        gap_den = gap.denominator

    lower_scaled = 0
    undecided_scaled = 0
    pending_scaled = 0
    examined = 0
    saved = 0
    kernel_batches = 0
    kernel_boxes = 0
    total_constraints = len(constraints)
    frontier_boxes: Optional[List[Tuple[Box, int, Tuple[int, ...]]]] = (
        [] if collect_frontier else None
    )
    index_of: Dict[Constraint, int] = (
        {constraint: index for index, constraint in enumerate(constraints.constraints)}
        if collect_frontier or kernel_pending
        else {}
    )

    if resume is None:
        heap = [(0, 0, unit_box(dimension), constraints.constraints)]
        pending_scaled = unit
        pushes = 1
        base_lower: Number = Fraction(0)
        base_examined = 0
        base_saved = 0
        base_peak = 0
    else:
        # Seed with the *children* of the stranded boxes: the shallow run
        # already popped and evaluated the boxes themselves (that pop is in
        # its counters), and a from-scratch deeper sweep would hand exactly
        # the stored undecided constraints down to these children.
        heap = []
        pushes = 0
        for box, depth, active_indices in resume.boxes:
            active = tuple(constraints.constraints[index] for index in active_indices)
            child_depth = depth + 1
            for child in _dyadic_split(box, depth):
                heapq.heappush(heap, (child_depth, pushes, child, active))
                pushes += 1
                pending_scaled += unit >> child_depth
        base_lower = resume.lower
        base_examined = resume.boxes_examined
        base_saved = resume.evaluations_saved
        base_peak = resume.heap_peak
    heap_peak = len(heap)
    early_exit = False
    while heap:
        if kernel_pending and examined >= kernel_warmup:
            # Warmup done: compile the set and hand the heap over to
            # the chunked kernel loop below, which re-checks budgets
            # before touching a box.
            kernel_pending = False
            compiled = _kernel.compile_constraint_set(constraints)
            if compiled is not None and compiled.uses_argument and argument is None:
                # The scalar path raises ``_UnknownEvaluation`` on the
                # first argument-dependent constraint; fall back so it
                # raises identically instead of the kernel reading
                # garbage.
                compiled = None
            if compiled is not None:
                break
        if (max_boxes is not None and examined >= max_boxes) or (
            use_gap and (undecided_scaled + pending_scaled) * gap_den <= gap_num
        ):
            # Budget reached: everything still on the frontier is undecided.
            early_exit = True
            undecided_scaled += sum(unit >> entry[0] for entry in heap)
            break
        depth, _, box, active = heapq.heappop(heap)
        scaled = unit >> depth
        pending_scaled -= scaled
        examined += 1
        saved += total_constraints - len(active)
        mapping: Dict[int, Interval] = {
            index: interval for index, interval in enumerate(box.intervals)
        }
        remaining = _undecided_constraints(active, mapping, registry, argument)
        if remaining is None:
            continue
        if not remaining:
            lower_scaled += scaled
            if accepted is not None:
                accepted.append(box)
            continue
        if depth >= max_depth:
            undecided_scaled += scaled
            if frontier_boxes is not None:
                frontier_boxes.append(
                    (box, depth, tuple(index_of[constraint] for constraint in remaining))
                )
            continue
        child_depth = depth + 1
        for child in _dyadic_split(box, depth):
            heapq.heappush(heap, (child_depth, pushes, child, remaining))
            pushes += 1
        pending_scaled += scaled
        if len(heap) > heap_peak:
            heap_peak = len(heap)
    if compiled is not None and not early_exit:
        argument_pairs = None
        if argument is not None:
            lo_below, lo_above = float_pair(argument.lo)
            hi_below, hi_above = float_pair(argument.hi)
            argument_pairs = ((lo_below, hi_above), (lo_above, hi_below))
        kernel_true = _kernel.KERNEL_TRUE
        kernel_false = _kernel.KERNEL_FALSE
        kernel_sure = _kernel.KERNEL_UNDECIDED_SURE
        # Bisection endpoints up to depth 52 are dyadic rationals that
        # convert to float exactly: endpoint conversion needs no rounding
        # analysis, and outer and inner banks coincide.  In that regime the
        # loop also carries one (lo_row, hi_row) pair of float lists per
        # heap entry (keyed by its push counter) and derives children's
        # rows from the parent's by float arithmetic -- the midpoint
        # ``(lo + hi) / 2`` of exact dyadic floats is again exact -- so
        # chunk arrays never convert a ``Fraction`` at all.  Entries pushed
        # before the handoff (warmup, resume seeds) have no row yet and
        # convert lazily on first pop.
        exact_floats = max_depth <= 52
        float_rows: Dict[int, Tuple[List[float], List[float]]] = {}
        while heap:
            if (max_boxes is not None and examined >= max_boxes) or (
                use_gap and (undecided_scaled + pending_scaled) * gap_den <= gap_num
            ):
                early_exit = True
                undecided_scaled += sum(unit >> entry[0] for entry in heap)
                break
            # Pop a prefix of the scalar pop order: a chunk only extends
            # while the heap's top is at most one depth level below the
            # first popped box (at least half its volume).  Any child a
            # chunk member generates is at least one level deeper and has
            # a strictly later push counter, so the scalar sweep pops every
            # chunk member before any such child -- the chunk is the scalar
            # order, re-batched.
            chunk = [heapq.heappop(heap)]
            limit = chunk[0][0] + 1
            while len(chunk) < kernel_chunk and heap and heap[0][0] <= limit:
                chunk.append(heapq.heappop(heap))
            if exact_floats:
                chunk_rows = [
                    float_rows.pop(entry[1], None) or _box_float_row(entry[2])
                    for entry in chunk
                ]
                arrays = _kernel.rows_to_arrays(
                    [row[0] for row in chunk_rows],
                    [row[1] for row in chunk_rows],
                )
            else:
                arrays = _kernel.boxes_to_arrays([entry[2] for entry in chunk])
            verdicts = [
                vector.tolist()  # plain ints: lane reads skip numpy scalars
                for vector in compiled.classify(*arrays, argument_pairs)
            ]
            kernel_batches += 1
            kernel_boxes += len(chunk)
            interrupted = False
            for position, entry in enumerate(chunk):
                if (max_boxes is not None and examined >= max_boxes) or (
                    use_gap
                    and (undecided_scaled + pending_scaled) * gap_den <= gap_num
                ):
                    # Budget reached mid-chunk: the unprocessed suffix goes
                    # back on the heap with its original tuples, restoring
                    # exactly the frontier the scalar sweep holds here.
                    early_exit = True
                    interrupted = True
                    for unprocessed in chunk[position:]:
                        heapq.heappush(heap, unprocessed)
                    undecided_scaled += sum(unit >> entry[0] for entry in heap)
                    break
                depth, _, box, active = entry
                scaled = unit >> depth
                pending_scaled -= scaled
                examined += 1
                saved += total_constraints - len(active)
                box_mapping: Optional[Dict[int, Interval]] = None
                rejected = False
                undecided_here: List[Constraint] = []
                for constraint in active:
                    code = verdicts[index_of[constraint]][position]
                    if code == kernel_true:
                        continue
                    if code == kernel_false:
                        rejected = True
                        break
                    if code == kernel_sure:
                        # The inner enclosure certifies the scalar verdict
                        # is ``None``; no scalar evaluation needed.
                        undecided_here.append(constraint)
                        continue
                    # Plain kernel-undecided lane: exact scalar re-check,
                    # which also reproduces the scalar path's domain errors.
                    if box_mapping is None:
                        box_mapping = {
                            index: interval
                            for index, interval in enumerate(box.intervals)
                        }
                    status = constraint.box_status(box_mapping, registry, argument)
                    if status is False:
                        rejected = True
                        break
                    if status is None:
                        undecided_here.append(constraint)
                if rejected:
                    continue
                remaining = tuple(undecided_here)
                if not remaining:
                    lower_scaled += scaled
                    if accepted is not None:
                        accepted.append(box)
                    continue
                if depth >= max_depth:
                    undecided_scaled += scaled
                    if frontier_boxes is not None:
                        frontier_boxes.append(
                            (
                                box,
                                depth,
                                tuple(index_of[constraint] for constraint in remaining),
                            )
                        )
                    continue
                child_depth = depth + 1
                low_child, high_child = _dyadic_split(box, depth)
                heapq.heappush(heap, (child_depth, pushes, low_child, remaining))
                if exact_floats:
                    # Split the float rows alongside the exact split.  The
                    # unchanged side of each child shares the parent's list
                    # (rows are never mutated once stored), the changed
                    # side is a one-element copy-and-patch.
                    row_lo, row_hi = chunk_rows[position]
                    axis = depth % dimension
                    mid_float = (row_lo[axis] + row_hi[axis]) / 2
                    left_hi = row_hi.copy()
                    left_hi[axis] = mid_float
                    right_lo = row_lo.copy()
                    right_lo[axis] = mid_float
                    float_rows[pushes] = (row_lo, left_hi)
                    float_rows[pushes + 1] = (right_lo, row_hi)
                heapq.heappush(heap, (child_depth, pushes + 1, high_child, remaining))
                pushes += 2
                pending_scaled += scaled
                # The scalar sweep still holds this chunk's unprocessed
                # suffix on its heap; fold it into the peak.
                virtual_size = len(heap) + (len(chunk) - position - 1)
                if virtual_size > heap_peak:
                    heap_peak = virtual_size
            if interrupted:
                break
    lower = Fraction(lower_scaled, unit)
    undecided = Fraction(undecided_scaled, unit)
    if stats is not None:
        # Work counters reflect the work *this* traversal performed: a
        # resumed sweep reports only its refinement here, while the result
        # below folds the shallow run's counters in for bit-identity.
        stats.sweep_boxes_examined += examined
        stats.sweep_evaluations_saved += saved
        if early_exit:
            stats.sweep_early_exits += 1
        if heap_peak > stats.sweep_heap_peak:
            stats.sweep_heap_peak = heap_peak
        if kernel_batches:
            stats.kernel_batches += kernel_batches
            stats.kernel_boxes += kernel_boxes
    frontier = None
    if frontier_boxes is not None and not early_exit:
        frontier = SweepFrontier(
            max_depth,
            base_lower + lower,
            base_examined + examined,
            base_saved + saved,
            max(base_peak, heap_peak),
            tuple(frontier_boxes),
        )
    return SweepResult(
        base_lower + lower,
        undecided,
        base_examined + examined,
        base_saved + saved,
        early_exit,
        max(base_peak, heap_peak),
        frontier,
    )


def sweep_accepted_boxes(
    constraints: ConstraintSet,
    dimension: int,
    max_depth: int = 12,
    registry: Optional[PrimitiveRegistry] = None,
    argument: Optional[Interval] = None,
) -> List[Box]:
    """The sweep's accepted boxes: pairwise almost-disjoint sub-boxes of the
    unit cube on which every constraint provably holds.

    The boxes witness the lower bound of :func:`sweep_measure` (their volumes
    sum to it) and are the raw material of the interval traces used by the
    intersection type system's inference oracle (Sec. 4).
    """
    accepted: List[Box] = []
    _sweep(
        constraints,
        dimension,
        max_depth,
        registry,
        argument,
        stats=None,
        target_gap=Fraction(0),
        max_boxes=None,
        accepted=accepted,
    )
    return accepted


def sweep_measure(
    constraints: ConstraintSet,
    dimension: int,
    max_depth: int = 12,
    registry: Optional[PrimitiveRegistry] = None,
    argument: Optional[Interval] = None,
    stats: Optional[PerfStats] = None,
    target_gap: Number = Fraction(0),
    max_boxes: Optional[int] = None,
    resume: Optional[SweepFrontier] = None,
    collect_frontier: bool = False,
    use_kernel: bool = False,
    kernel_chunk: int = _KERNEL_CHUNK,
    kernel_warmup: int = _KERNEL_WARMUP,
) -> SweepResult:
    """Certified lower/upper bounds on the measure of ``constraints`` in
    ``[0,1]^dim``.

    ``max_depth`` bounds the number of bisections along any branch of the
    subdivision tree; the undecided volume shrinks (for interval-separable
    constraints) as the depth grows, mirroring the completeness argument of
    Thm. 3.8.  ``target_gap`` and ``max_boxes`` are optional early-exit
    budgets (see the module docstring); with both unset the result is
    bit-identical to the historical fixed-depth depth-first sweep.

    ``collect_frontier`` attaches the undecided-box frontier to the result
    (pure depth budgets only), and ``resume`` warm-starts the sweep from a
    shallower budget's frontier of the *same* constraint set: bounds and
    work counters come out bit-identical to a from-scratch run at
    ``max_depth``, at the cost of refining only what the shallower budget
    left undecided.

    ``use_kernel`` batches classification through the vectorized kernel
    when the set compiles -- every field of the result stays bit-identical
    (see the module docstring).
    """
    if resume is not None and resume.max_depth >= max_depth:
        raise ValueError(
            f"can only resume a shallower frontier: depth {resume.max_depth} "
            f"is not below the requested {max_depth}"
        )
    return _sweep(
        constraints,
        dimension,
        max_depth,
        registry,
        argument,
        stats,
        target_gap,
        max_boxes,
        accepted=None,
        resume=resume,
        collect_frontier=collect_frontier,
        use_kernel=use_kernel,
        kernel_chunk=kernel_chunk,
        kernel_warmup=kernel_warmup,
    )


# ---------------------------------------------------------------------------
# Frontier persistence: an exact JSON form for the sharded sweep store.
# ---------------------------------------------------------------------------


def encode_frontier(frontier: SweepFrontier) -> Optional[list]:
    """A JSON-safe rendering of a frontier, or ``None`` if one is impossible.

    Box endpoints and the accepted mass round-trip exactly as ``"p/q"``
    fraction strings (bisection of the unit box only ever produces
    fractions; anything else refuses to encode rather than lose precision).
    """
    if not isinstance(frontier.lower, Fraction):
        return None
    boxes = []
    for box, depth, active in frontier.boxes:
        intervals = []
        for interval in box.intervals:
            if not isinstance(interval.lo, Fraction) or not isinstance(
                interval.hi, Fraction
            ):
                return None
            intervals.append([str(interval.lo), str(interval.hi)])
        boxes.append([intervals, depth, list(active)])
    return [
        frontier.max_depth,
        str(frontier.lower),
        frontier.boxes_examined,
        frontier.evaluations_saved,
        frontier.heap_peak,
        boxes,
    ]


def decode_frontier(encoded, constraint_count: int) -> Optional[SweepFrontier]:
    """Invert :func:`encode_frontier`; anything malformed reads as ``None``.

    ``constraint_count`` bounds the stored constraint indices -- an entry
    whose indices do not fit the set it is resumed against is unusable and
    must read as a miss, never mis-resolve.
    """
    try:
        max_depth, lower, boxes_examined, evaluations_saved, heap_peak, boxes = encoded
        decoded = []
        for intervals, depth, active in boxes:
            if not all(
                isinstance(index, int) and 0 <= index < constraint_count
                for index in active
            ):
                return None
            box = Box(
                Interval(Fraction(lo), Fraction(hi)) for lo, hi in intervals
            )
            decoded.append((box, int(depth), tuple(active)))
        return SweepFrontier(
            int(max_depth),
            Fraction(lower),
            int(boxes_examined),
            int(evaluations_saved),
            int(heap_peak),
            tuple(decoded),
        )
    except (TypeError, ValueError, ZeroDivisionError):
        return None
