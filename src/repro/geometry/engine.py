"""The shared memoizing measure engine.

The verifier (:mod:`repro.astcheck`), the lower-bound engine
(:mod:`repro.lowerbound`), the counting-pattern analysis
(:mod:`repro.counting.pattern`) and the PAST checker
(:mod:`repro.pastcheck`) all reduce probabilities to measures of constraint
sets inside the unit cube.  The same sets come back again and again: every
budget of the old per-budget ``Papprox`` recursion re-measured every leaf,
the PAST verifier re-runs the AST verifier on the same execution tree, and
the refutation measures one pattern per sample argument.  A
:class:`MeasureEngine` makes that reuse explicit:

* constraint sets are *canonicalized* (duplicates dropped, constraints put in
  a deterministic order) so syntactically different prefixes of the same
  conjunction share one cache entry,
* canonical sets are *block-decomposed*: the constraints are partitioned into
  connected components ("blocks") over shared sample variables
  (:meth:`~repro.symbolic.constraints.ConstraintSet.support_blocks`), each
  block is renumbered to variables ``0..k-1``, measured and memoized under
  its own canonical block key, and the full-set measure is the product of the
  block measures.  Two sets sharing a block -- even at different sample
  positions -- measure it once.  Decomposition is restricted to the regime
  where the product provably equals the monolithic computation (every
  constraint affine, no free argument, no unresolved recursion marker, sweep
  not forced); everything else takes the monolithic path unchanged,
* *non-affine* sets (``sig``/``exp`` constraints) are block-decomposed too,
  but into *swept* blocks: each block runs its own certified subdivision
  sweep in ``[0,1]^{d_i}`` and the per-block ``[lower, upper]`` intervals
  combine as products, which provably tightens the lower bound against the
  joint full-dimensional sweep at equal budget.  Every block sweep runs the
  one regime of :mod:`repro.geometry.sweep` -- pure dyadic bisection with
  exact integer mass -- so a block's bracket is a function of the block
  and the sweep budget alone.  (The joint sweep survives only as the
  library-level reference
  :attr:`~repro.geometry.measure.MeasureOptions.block_sweep` ``=False``,
  which tests and benchmarks compare against.)  Per-block
  :class:`~repro.geometry.sweep.SweepResult`\\ s are memoized under the
  position-independent canonical block key *plus the sweep budget* and
  persisted as ``sweeps`` rows of the batch store, so a
  fleet sweeps each distinct block once, not once per process,
* results are memoized keyed by ``(canonical set, dimension, options,
  argument)`` -- block keys and full-set product keys live in the same memo
  table; the first caller pays, everyone else hits,
* complementary probabilistic branches are resolved algebraically *per
  block*: for a guard ``g`` the solution sets of ``C + (g <= 0)`` and
  ``C + (g > 0)`` partition the solution set of ``C``, so once two of the
  three measures are cached the third is a subtraction -- applied only in the
  regime where the direct computation is guaranteed exact (all constraints
  univariate affine), so cached and uncached runs are bit-for-bit identical,
* a :class:`~repro.geometry.stats.PerfStats` instance counts requests, hits,
  block lookups, sweep boxes and polytope invocations for benchmarks and
  ``--stats``.

Two library-level reference configurations exist for tests and
benchmarks; no CLI flag selects them.  ``cache_enabled=False`` turns the
engine into a counted pass-through with the same canonicalization *and the
same block decomposition*, which is how the perf benchmark checks
bit-identity; ``block_decomposition=False`` restores the whole-set-only
memoization.

Invariants
----------

* **Bit-identity.**  Caching, block decomposition, persistence and telemetry
  are performance features, never numerical ones: a measure computed through
  any combination of memo hit, persistent-store import, complementary-branch
  subtraction or cold recomputation is the same exact :class:`Fraction` (or
  the same interval bracket on the swept path).  Optimizations that could
  perturb a result -- block products outside the provable regime, algebraic
  complements outside univariate-affine sets -- are *gated*, not risked.
* **Exactness tracking.**  Every result states whether it is exact; inexact
  (swept) results carry a certified ``[lower, upper]`` bracket, and derived
  bounds only ever consume the sound side.
* **Export/import round-trip.**  ``export_cache_entries`` /
  ``import_cache_entries`` (and their sweep twins) losslessly round-trip
  memo entries through JSON-safe tuples under a primitive-registry
  fingerprint; an import under a different fingerprint is a no-op, never a
  wrong answer.  Exports are incremental (entries new since the last
  export), which is what makes the daemon's per-request store merges cheap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import repro.telemetry as telemetry
from repro.geometry.linear import halfspace_from_constraint
from repro.geometry.measure import MeasureOptions, MeasureResult, measure_constraints
from repro.geometry.stats import PerfStats
from repro.geometry.sweep import (
    _KERNEL_CHUNK as _SWEEP_KERNEL_CHUNK,
    SweepFrontier,
    SweepResult,
    decode_frontier,
    encode_frontier,
    sweep_measure,
)
from repro.intervals.interval import Interval
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.symbolic.constraints import Constraint, ConstraintSet, remap_constraints

Number = Union[Fraction, float]

_CacheKey = Tuple[Tuple[Constraint, ...], int, MeasureOptions, Optional[Interval]]

_SweepKey = Tuple[Tuple[Constraint, ...], int, MeasureOptions]

_Block = Tuple[ConstraintSet, int]
"""A renumbered canonical block and its dimension (= its variable count)."""

_MAX_PERSISTED_FRONTIER_BOXES = 2048
"""Frontiers larger than this are memoized but not persisted: store rows
must stay small enough that loading the sweep kind is cheap, and a frontier
that large means the block is near-degenerate anyway."""


def _encode_number(value) -> Optional[List]:
    """Encode a measure value for exact JSON round-tripping."""
    if isinstance(value, Fraction):
        return ["F", str(value)]
    if isinstance(value, float):
        return ["f", value.hex()]
    if isinstance(value, int):
        return ["F", str(Fraction(value))]
    return None


def _decode_number(encoded):
    """Invert :func:`_encode_number`; raises on malformed input."""
    kind, payload = encoded
    if kind == "F":
        return Fraction(payload)
    if kind == "f":
        return float.fromhex(payload)
    raise ValueError(f"unknown number encoding {kind!r}")


class MeasureEngine:
    """Memoizing, counting front end to :func:`measure_constraints`.

    One engine instance is meant to be shared by every analysis of a session
    (the CLI builds one per command); all callers then draw from one cache.
    """

    def __init__(
        self,
        options: Optional[MeasureOptions] = None,
        registry: Optional[PrimitiveRegistry] = None,
        cache_enabled: bool = True,
        stats: Optional[PerfStats] = None,
        block_decomposition: bool = True,
    ) -> None:
        self.options = options or MeasureOptions()
        self.registry = registry or default_registry()
        self.cache_enabled = cache_enabled
        self.block_decomposition = block_decomposition
        self.stats = stats if stats is not None else PerfStats()
        self._cache: Dict[_CacheKey, MeasureResult] = {}
        self._imported: Dict[str, MeasureResult] = {}
        self._export_skip: set = set()
        self._unexported: list = []
        # The sweep memo: per-block SweepResults keyed by the renumbered
        # canonical block plus the budget-bearing options, mirrored by a
        # persistent import/export side identical in shape to the measure
        # entries above.
        self._sweep_cache: Dict[_SweepKey, SweepResult] = {}
        self._sweep_imported: Dict[str, SweepResult] = {}
        self._sweep_export_skip: set = set()
        self._sweep_unexported: list = []
        # Imported frontier blobs, decoded lazily: a warm-start probe knows
        # the block it is sweeping, so the (position-independent) constraint
        # indices can be validated and materialized only when actually used.
        self._sweep_frontier_blobs: Dict[str, list] = {}
        # Persistent-store keys answered from an import since the last drain
        # (tracked per store kind); the batch store uses them to refresh GC
        # touch stamps of exactly those rows.
        self._persistent_keys_used: set = set()
        self._sweep_keys_used: set = set()
        # Derived structure, memoized per canonical constraint tuple so hot
        # requests pay one dict probe: the block decomposition (or None when
        # the set must take the monolithic path) and the renumbered canonical
        # form of each block.
        self._decompositions: Dict[Tuple[Constraint, ...], Optional[Tuple[_Block, ...]]] = {}
        self._sweep_decompositions: Dict[
            Tuple[Constraint, ...], Optional[Tuple[_Block, ...]]
        ] = {}
        self._block_views: Dict[Tuple[Constraint, ...], _Block] = {}
        self._affine: Dict[Constraint, bool] = {}

    # -- canonicalization ----------------------------------------------------

    def canonicalize(self, constraints: ConstraintSet) -> ConstraintSet:
        """Dedupe and deterministically order a constraint set.

        The solution set of a conjunction is invariant under dropping
        duplicates and reordering, so canonical sets measure identically while
        maximizing cache sharing across call sites that accumulate the same
        constraints in different orders.  The canonical form is cached on the
        input instance (and the per-constraint sort keys on the constraints,
        which are shared across sets through common path prefixes), so
        repeated probes do not re-render symbolic values.
        """
        try:
            return constraints._canonical_form
        except AttributeError:
            pass
        unique = []
        seen = set()
        for constraint in constraints:
            if constraint not in seen:
                seen.add(constraint)
                unique.append(constraint)
        unique.sort(key=Constraint.sort_key)
        canonical = ConstraintSet(unique)
        object.__setattr__(constraints, "_canonical_form", canonical)
        return canonical

    # -- measuring -----------------------------------------------------------

    def measure(
        self,
        constraints: ConstraintSet,
        dimension: Optional[int] = None,
        argument: Optional[Interval] = None,
    ) -> MeasureResult:
        """Measure ``constraints`` inside ``[0, 1]^dimension`` through the cache.

        ``dimension`` defaults to ``constraints.dimension()`` (1 + the largest
        sample-variable index), matching the direct use in the AST verifier;
        the lower-bound engine passes the number of variables sampled along
        the path explicitly.
        """
        self.stats.measure_requests += 1
        canonical = self.canonicalize(constraints)
        if dimension is None:
            dimension = canonical.dimension()
        key = (canonical.constraints, dimension, self.options, argument)
        if self.cache_enabled:
            cached = self._cache.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                return cached
        result = None
        if self.cache_enabled and self._imported:
            # Full-set entries cover both monolithic results and the legacy
            # (pre-block) persistent cache format.
            persistent = self.persistent_key(canonical, dimension, argument)
            result = self._imported.get(persistent)
            if result is not None:
                self.stats.persistent_hits += 1
                self._persistent_keys_used.add(persistent)
                self._cache[key] = result
                return result
        blocks = self._decompose(canonical, argument) if self.block_decomposition else None
        if blocks is not None:
            result = self._measure_blocks(blocks)
            if self.cache_enabled:
                # The product is memoized under the full-set key so repeated
                # identical requests stay one probe, but it is *not* queued
                # for export: persistence stores the block entries, which are
                # what other processes (and other sets) can actually reuse.
                self._cache[key] = result
            return result
        sweep_blocks = self._sweep_decompose(canonical, argument)
        if sweep_blocks is not None:
            with telemetry.span("block", blocks=len(sweep_blocks), dim=dimension):
                result = self._measure_sweep_blocks(sweep_blocks)
            if self.cache_enabled:
                # Like the affine product above: memoized under the full-set
                # key, persisted only as per-block sweep entries.
                self._cache[key] = result
            return result
        if not self.cache_enabled:
            return self._invoke(canonical, dimension, argument)
        if argument is None:
            result = self._derive_complement(canonical, dimension)
        if result is None:
            result = self._invoke(canonical, dimension, argument)
        self._cache[key] = result
        self._unexported.append(key)
        return result

    def _invoke(
        self, canonical: ConstraintSet, dimension: int, argument: Optional[Interval]
    ) -> MeasureResult:
        self.stats.measure_calls += 1
        writer = telemetry.active()
        token = (
            writer.begin(
                "measure", constraints=len(canonical.constraints), dim=dimension
            )
            if writer is not None
            else None
        )
        try:
            return measure_constraints(
                canonical,
                dimension,
                options=self.options,
                registry=self.registry,
                argument=argument,
                stats=self.stats,
            )
        finally:
            if token is not None:
                writer.end(token)

    # -- block decomposition ---------------------------------------------------

    def _decompose(
        self, canonical: ConstraintSet, argument: Optional[Interval]
    ) -> Optional[Tuple[_Block, ...]]:
        """The canonical set's measurable blocks, or ``None`` for monolithic.

        Decomposition is sound for any constraint set (disjoint variable
        groups are independent under the product measure), but it is only
        *bit-reproducible* against the monolithic facade when every block is
        resolved by the exact affine machinery -- a joint subdivision sweep
        of two independent blocks is coarser than the product of their
        per-block sweeps.  So the decomposed path is taken exactly when:

        * no free argument is involved (engine-level or inside a constraint),
        * no constraint carries an unresolved recursion marker (``star``),
        * the sweep is not forced (``prefer_sweep``),
        * every constraint has an affine half-space form, and
        * every constraint mentions at least one sample variable (constant
          constraints are rare and keep their historic monolithic handling).
        """
        if (
            argument is not None
            or not canonical.constraints
            or self.options.prefer_sweep
        ):
            return None
        blocks = self._decompositions.get(canonical.constraints)
        if blocks is None and canonical.constraints not in self._decompositions:
            blocks = self._compute_decomposition(canonical)
            self._decompositions[canonical.constraints] = blocks
        return blocks

    def _compute_decomposition(
        self, canonical: ConstraintSet
    ) -> Optional[Tuple[_Block, ...]]:
        if canonical.contains_argument() or canonical.contains_star():
            return None
        for constraint in canonical:
            if not constraint.variables():
                return None
            if not self._constraint_affine(constraint):
                return None
        return tuple(
            self._block_view(variables, constraints)
            for variables, constraints in canonical.support_blocks()
        )

    def _block_view(
        self, variables: Tuple[int, ...], constraints: Tuple[Constraint, ...]
    ) -> _Block:
        """The renumbered canonical form of one block (memoized per block).

        Renumbering the block's variables to ``0..k-1`` makes the block key
        position-independent: the same one-sample constraint shape produced at
        sample index 0 and at sample index 7 lands on one cache entry.
        """
        view = self._block_views.get(constraints)
        if view is None:
            if variables == tuple(range(len(variables))):
                remapped = ConstraintSet(constraints)  # already in base position
            else:
                remapped = remap_constraints(constraints, variables)
            view = (self.canonicalize(remapped), len(variables))
            self._block_views[constraints] = view
        return view

    def _measure_blocks(self, blocks: Tuple[_Block, ...]) -> MeasureResult:
        """The product of the block measures (the decomposed full-set answer)."""
        if len(blocks) == 1:
            # Preserve the single-block result verbatim (value, flags and
            # provenance) -- the whole set *is* one block in base position.
            return self._measure_block(*blocks[0])
        self.stats.multi_block_sets += 1
        total = Fraction(1)
        exact = True
        methods = set()
        for block, block_dimension in blocks:
            result = self._measure_block(block, block_dimension)
            methods.add(result.method)
            total = total * result.value
            exact = exact and result.exact
            if total == 0:
                break
        method = "+".join(sorted(methods)) if methods else "trivial"
        return MeasureResult(total, exact=exact, lower_bound=not exact, method=method)

    def _measure_block(self, block: ConstraintSet, dimension: int) -> MeasureResult:
        """Measure one renumbered block through the block-level memo table."""
        self.stats.block_requests += 1
        if not self.cache_enabled:
            return self._invoke(block, dimension, None)
        key = (block.constraints, dimension, self.options, None)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.block_cache_hits += 1
            return cached
        result = None
        if self._imported:
            persistent = self.persistent_key(block, dimension, None)
            result = self._imported.get(persistent)
            if result is not None:
                self.stats.persistent_hits += 1
                self._persistent_keys_used.add(persistent)
        if result is None:
            result = self._derive_complement(block, dimension)
        if result is None:
            result = self._invoke(block, dimension, None)
        self._cache[key] = result
        self._unexported.append(key)
        return result

    # -- block-swept non-affine sets -------------------------------------------

    def _sweep_decompose(
        self, canonical: ConstraintSet, argument: Optional[Interval]
    ) -> Optional[Tuple[_Block, ...]]:
        """The swept blocks of a non-affine canonical set, or ``None``.

        The block-sweep path is taken exactly when the set could not go
        through the exact affine decomposition *because of non-affinity*: at
        least one constraint has no half-space form, no free argument or
        unresolved recursion marker is involved (those keep their historic
        monolithic handling), the joint sweep is not forced
        (``prefer_sweep``, the ablation knob), and ``block_sweep`` is on.
        Fully affine sets never land here -- their machinery is exact and
        must stay bit-identical.
        """
        if (
            argument is not None
            or not canonical.constraints
            or not self.options.block_sweep
            or self.options.prefer_sweep
        ):
            return None
        key = canonical.constraints
        if key in self._sweep_decompositions:
            return self._sweep_decompositions[key]
        blocks = self._compute_sweep_decomposition(canonical)
        self._sweep_decompositions[key] = blocks
        return blocks

    def _compute_sweep_decomposition(
        self, canonical: ConstraintSet
    ) -> Optional[Tuple[_Block, ...]]:
        if canonical.contains_argument() or canonical.contains_star():
            return None
        any_nonaffine = False
        for constraint in canonical:
            if not self._constraint_affine(constraint):
                any_nonaffine = True
        if not any_nonaffine:
            return None
        return tuple(
            self._block_view(variables, constraints)
            for variables, constraints in canonical.support_blocks()
        )

    def _constraint_affine(self, constraint: Constraint) -> bool:
        affine = self._affine.get(constraint)
        if affine is None:
            affine = halfspace_from_constraint(constraint, self.registry) is not None
            self._affine[constraint] = affine
        return affine

    def _measure_sweep_blocks(self, blocks: Tuple[_Block, ...]) -> MeasureResult:
        """Interval product of the per-block bounds (the block-sweep answer).

        Disjoint variable blocks are independent under the product measure,
        so ``measure = prod measure_i``; with each block bracketed by a
        certified ``[lower_i, upper_i]`` the product interval
        ``[prod lower_i, prod upper_i]`` brackets the full-set measure.
        """
        if len(blocks) > 1:
            self.stats.multi_block_sets += 1
        lower: Number = Fraction(1)
        upper: Number = Fraction(1)
        methods = set()
        for block, block_dimension in blocks:
            block_lower, block_upper, method = self._sweep_block_bounds(
                block, block_dimension
            )
            methods.add(method)
            lower = lower * block_lower
            upper = upper * block_upper
            if upper == 0:
                # A provably empty block empties the whole product, exactly.
                lower = upper
                break
        exact = lower == upper
        method = "+".join(sorted(methods)) if methods else "trivial"
        return MeasureResult(
            lower,
            exact=exact,
            lower_bound=not exact,
            method=method,
            upper=None if exact else upper,
        )

    def _sweep_block_bounds(
        self, block: ConstraintSet, dimension: int
    ) -> Tuple[Number, Number, str]:
        """Certified ``(lower, upper, method)`` bounds for one block.

        Affine blocks of a mixed set go through the exact (memoized) affine
        machinery when it can answer exactly -- only univariate and polygon
        blocks can, so larger affine blocks skip the attempt.  Every other
        block is swept: the float polytope approximation carries no
        directional guarantee and must never become the lower endpoint of a
        product that claims to be a certified bound.
        """
        if dimension <= 2 and all(
            self._constraint_affine(constraint) for constraint in block
        ):
            result = self._measure_block(block, dimension)
            if result.exact and not result.lower_bound:
                return result.value, result.value, result.method
        sweep = self._sweep_block(block, dimension)
        return sweep.lower, sweep.upper, "sweep"

    def _sweep_block(self, block: ConstraintSet, dimension: int) -> SweepResult:
        """Sweep one renumbered block through the sweep memo table.

        On a full miss, the base sweep warm-starts from the deepest persisted
        frontier of the *same block at a shallower depth budget* when the
        store holds one: the resumed bounds are bit-identical to a
        from-scratch sweep at this engine's budget, so warm-started and cold
        entries are interchangeable everywhere.
        """
        self.stats.block_requests += 1
        if not self.cache_enabled:
            return self._run_block_sweep(block, dimension)
        key = (block.constraints, dimension, self.options)
        cached = self._sweep_cache.get(key)
        if cached is not None:
            self.stats.block_cache_hits += 1
            return cached
        result = None
        if self._sweep_imported:
            persistent = self.persistent_sweep_key(block, dimension)
            result = self._sweep_imported.get(persistent)
            if result is not None:
                self.stats.persistent_hits += 1
                self._sweep_keys_used.add(persistent)
        if result is None:
            resume = self._find_sweep_resume(block, dimension)
            if resume is not None:
                self.stats.sweep_warm_starts += 1
                telemetry.emit("sweep-warm-start", resumed_depth=resume.max_depth)
            result = self._run_block_sweep(block, dimension, resume=resume)
        self._sweep_cache[key] = result
        self._sweep_unexported.append((key, block, dimension))
        return result

    def _find_sweep_resume(
        self, block: ConstraintSet, dimension: int
    ) -> Optional[SweepFrontier]:
        """The deepest usable persisted frontier of ``block``, or ``None``.

        Frontiers only determine the deeper sweep under pure depth budgets,
        so any early-exit knob disables warm-starting outright.  Candidate
        budgets are probed deepest-first by rendering their persistent key
        directly -- the sweep store needs no secondary index.
        """
        options = self.options
        if (
            not self._sweep_frontier_blobs
            or options.sweep_target_gap != 0
            or options.sweep_max_boxes is not None
        ):
            return None
        prefix = self._sweep_key_prefix(block, dimension)
        for depth in range(options.sweep_depth - 1, 0, -1):
            blob = self._sweep_frontier_blobs.get(
                prefix + self._sweep_key_suffix(sweep_depth=depth)
            )
            if blob is None:
                continue
            frontier = decode_frontier(blob, len(block.constraints))
            if frontier is not None and frontier.max_depth == depth:
                return frontier
        return None

    def _run_block_sweep(
        self,
        block: ConstraintSet,
        dimension: int,
        resume: Optional[SweepFrontier] = None,
    ) -> SweepResult:
        self.stats.sweep_blocks += 1
        options = self.options
        # Pure depth budgets collect the frontier so the store can hand it
        # to deeper budgets; early-exit budgets cannot produce a usable one,
        # and with the cache disabled nothing would ever memoize or persist
        # it, so the collection work is skipped outright.
        depth_budget_only = (
            self.cache_enabled
            and options.sweep_target_gap == 0
            and options.sweep_max_boxes is None
        )
        writer = telemetry.active()
        token = (
            writer.begin(
                "sweep",
                constraints=len(block.constraints),
                dim=dimension,
                depth=options.sweep_depth,
                resumed=resume is not None,
            )
            if writer is not None
            else None
        )
        boxes_before = self.stats.sweep_boxes_examined
        batches_before = self.stats.kernel_batches
        kernel_boxes_before = self.stats.kernel_boxes
        # The vectorized classification gets its own nested span so traces
        # show how much of a sweep actually went through the kernel (a set
        # the kernel cannot compile falls back silently and reports 0).
        kernel_token = (
            writer.begin("sweep-kernel", chunk=_SWEEP_KERNEL_CHUNK)
            if writer is not None and options.sweep_kernel
            else None
        )
        try:
            return sweep_measure(
                block,
                dimension,
                max_depth=options.sweep_depth,
                registry=self.registry,
                stats=self.stats,
                target_gap=options.sweep_target_gap,
                max_boxes=options.sweep_max_boxes,
                resume=resume,
                collect_frontier=depth_budget_only,
                use_kernel=options.sweep_kernel,
            )
        finally:
            if kernel_token is not None:
                writer.end(
                    kernel_token,
                    batches=self.stats.kernel_batches - batches_before,
                    boxes=self.stats.kernel_boxes - kernel_boxes_before,
                )
            if token is not None:
                writer.end(
                    token, boxes=self.stats.sweep_boxes_examined - boxes_before
                )

    # -- the complement rule ---------------------------------------------------

    def _derive_complement(
        self, canonical: ConstraintSet, dimension: int
    ) -> Optional[MeasureResult]:
        """Try to answer ``canonical`` as ``measure(prefix) - measure(partner)``.

        For any constraint ``c`` of the set, ``prefix = set - {c}`` is
        partitioned by ``c`` and its negation, so
        ``measure(set) = measure(prefix) - measure(prefix + not c)`` whenever
        both right-hand measures are known.  The rule is restricted to sets
        whose constraints are all affine in a single variable each: there the
        direct computation is the exact product of interval lengths, so the
        derived value provably equals what :func:`measure_constraints` would
        return and bit-identity between cached and uncached runs is preserved.
        """
        if not self._univariate_affine(canonical):
            return None
        for position, constraint in enumerate(canonical.constraints):
            partner = Constraint(constraint.value, constraint.relation.negation())
            rest = (
                canonical.constraints[:position] + canonical.constraints[position + 1 :]
            )
            partner_result = self._lookup_exact(rest + (partner,), dimension)
            if partner_result is None:
                continue
            prefix_result = self._lookup_exact(rest, dimension)
            if prefix_result is None:
                continue
            value = prefix_result.value - partner_result.value
            if value < 0:  # exact measures cannot go negative; be safe anyway
                value = Fraction(0)
            self.stats.complement_derivations += 1
            return MeasureResult(value, exact=True, lower_bound=False, method="complement")
        return None

    def _lookup_exact(
        self, constraints: Tuple[Constraint, ...], dimension: int
    ) -> Optional[MeasureResult]:
        """A cached exact rational measure for a constraint tuple, or ``None``.

        The empty conjunction needs no cache entry: its solution set is the
        whole cube, of measure exactly 1.
        """
        if not constraints:
            return MeasureResult(Fraction(1), exact=True, lower_bound=False, method="trivial")
        canonical = self.canonicalize(ConstraintSet(constraints))
        # In the univariate-affine regime the measure does not depend on the
        # ambient dimension (unconstrained variables contribute exactly 1), so
        # an entry cached under the set's own dimension is equally good.
        for candidate_dimension in (dimension, canonical.dimension()):
            cached = self._cache.get(
                (canonical.constraints, candidate_dimension, self.options, None)
            )
            if (
                cached is not None
                and cached.exact
                and not cached.lower_bound
                and isinstance(cached.value, Fraction)
            ):
                return cached
        return None

    def _univariate_affine(self, constraints: ConstraintSet) -> bool:
        """True iff every constraint is affine and mentions at most one variable.

        Such sets decompose into univariate blocks that the measure facade
        resolves with the always-exact interval method, which is what makes
        the complement rule's derived values bit-identical to direct ones.
        """
        for constraint in constraints:
            if len(constraint.variables()) > 1:
                return False
            if halfspace_from_constraint(constraint, self.registry) is None:
                return False
        return True

    # -- persistence -----------------------------------------------------------
    #
    # The batch subsystem (:mod:`repro.batch`) persists measure results across
    # processes.  Entries are keyed by a *string* rendering of the canonical
    # cache key: every constraint renders deterministically (the cached
    # ``Constraint.sort_key`` reprs are built from fractions, strings and
    # tuples only), so equal constraint sets produce equal keys in every
    # process, while the persistent store never needs to re-materialise a
    # :class:`~repro.symbolic.constraints.ConstraintSet` from disk -- lookups
    # always start from a live set whose key is recomputed.  Values round-trip
    # exactly: fractions as ``"p/q"`` strings, floats as ``float.hex()``.

    def registry_fingerprint(self) -> str:
        """A stable identifier of the primitive semantics behind the cache."""
        return ",".join(sorted(self.registry.names()))

    def persistent_key(
        self,
        canonical: ConstraintSet,
        dimension: int,
        argument: Optional[Interval] = None,
    ) -> str:
        """The deterministic cross-process cache key of one measure request.

        Every option that can change a computed value is rendered into the
        key -- including the sweep budgets and ``block_sweep``, which change
        emitted non-affine bounds -- so runs under different configurations
        can share one store without ever serving each other's numbers.
        """
        options = self.options
        return "|".join(
            [
                ";".join(c.sort_key() for c in canonical.constraints),
                f"d{dimension}",
                f"o{options.max_hull_dimension}.{options.sweep_depth}.{int(options.prefer_sweep)}"
                f".{int(options.block_sweep)}.{options.sweep_target_gap}"
                # ``sweep_kernel`` is deliberately absent: kernel results
                # are bit-identical to scalar ones.
                f".{options.sweep_max_boxes}",
                f"a{argument!r}",
            ]
        )

    def persistent_sweep_key(
        self, block: ConstraintSet, dimension: int, sweep_depth: Optional[int] = None
    ) -> str:
        """The cross-process key of one per-block sweep.

        Only the budget-bearing options participate: a sweep's outcome does
        not depend on ``max_hull_dimension``, ``prefer_sweep`` or
        ``block_sweep``, so entries stay shared across those configurations.
        ``sweep_depth`` overrides the engine's own depth budget -- the
        warm-start probe renders the keys shallower budgets would have
        written under, without needing an engine per budget.
        """
        return self._sweep_key_prefix(block, dimension) + self._sweep_key_suffix(
            sweep_depth
        )

    def _sweep_key_prefix(self, block: ConstraintSet, dimension: int) -> str:
        """The budget-independent part of a sweep key (constraints + dim)."""
        return ";".join(c.sort_key() for c in block.constraints) + f"|d{dimension}"

    def _sweep_key_suffix(self, sweep_depth: Optional[int] = None) -> str:
        """The budget-bearing tail of a sweep key."""
        options = self.options
        if sweep_depth is None:
            sweep_depth = options.sweep_depth
        # The kernel never appears here -- its results are bit-identical.
        return f"|s{sweep_depth}.{options.sweep_target_gap}.{options.sweep_max_boxes}"

    def export_cache_entries(self) -> Dict[str, List]:
        """Serialize memoized results added since the last import/export.

        Only entries cached since the previous export are visited (workers
        export after every job, so rescanning the whole memo table would be
        quadratic over a batch), and entries that were themselves imported
        are skipped: the caller merges the export into the store they came
        from, so re-serializing them would only waste work.
        """
        exported: Dict[str, List] = {}
        for constraints, dimension, _options, argument in self._unexported:
            key = self.persistent_key(ConstraintSet(constraints), dimension, argument)
            if key in self._export_skip:
                continue
            result = self._cache.get((constraints, dimension, _options, argument))
            if result is None:
                continue
            encoded = _encode_number(result.value)
            if encoded is None:
                continue
            entry = [encoded, result.exact, result.lower_bound, result.method]
            if result.upper is not None:
                encoded_upper = _encode_number(result.upper)
                if encoded_upper is not None:
                    entry.append(encoded_upper)
            exported[key] = entry
        self._unexported.clear()
        self._export_skip.update(exported)
        return exported

    def import_cache_entries(self, entries: Mapping[str, Iterable]) -> int:
        """Load serialized entries; malformed ones are skipped, not fatal.

        Imported results are consulted on in-memory cache misses (and counted
        as :attr:`PerfStats.persistent_hits`); they are byte-for-byte the
        results a cold engine would compute, so warm and cold runs stay
        bit-identical.
        """
        imported = 0
        for key, entry in entries.items():
            try:
                encoded_value, exact, lower_bound, method = entry[:4]
                value = _decode_number(encoded_value)
                upper = _decode_number(entry[4]) if len(entry) > 4 else None
                if not isinstance(key, str) or not isinstance(method, str):
                    continue
                result = MeasureResult(
                    value,
                    exact=bool(exact),
                    lower_bound=bool(lower_bound),
                    method=method,
                    upper=upper,
                )
            except (TypeError, ValueError, KeyError, IndexError):
                continue
            self._imported[key] = result
            self._export_skip.add(key)
            imported += 1
        return imported

    def export_sweep_entries(self) -> Dict[str, List]:
        """Serialize per-block sweep results added since the last export.

        Mirrors :meth:`export_cache_entries`: only entries memoized since the
        previous import/export are visited, and entries that arrived through
        an import are skipped.
        """
        exported: Dict[str, List] = {}
        for key, block, dimension in self._sweep_unexported:
            persistent = self.persistent_sweep_key(block, dimension)
            if persistent in self._sweep_export_skip:
                continue
            result = self._sweep_cache.get(key)
            if result is None:
                continue
            lower = _encode_number(result.lower)
            undecided = _encode_number(result.undecided)
            if lower is None or undecided is None:
                continue
            entry = [
                lower,
                undecided,
                result.boxes_examined,
                result.evaluations_saved,
                result.early_exit,
                result.heap_peak,
            ]
            # The undecided-box frontier rides along (bounded in size) so a
            # deeper budget in another process can resume instead of
            # re-sweeping from the unit box.
            if (
                result.frontier is not None
                and len(result.frontier.boxes) <= _MAX_PERSISTED_FRONTIER_BOXES
            ):
                encoded_frontier = encode_frontier(result.frontier)
                if encoded_frontier is not None:
                    entry.append(encoded_frontier)
            exported[persistent] = entry
        self._sweep_unexported.clear()
        self._sweep_export_skip.update(exported)
        return exported

    def import_sweep_entries(self, entries: Mapping[str, Iterable]) -> int:
        """Load serialized sweep results; malformed ones are skipped.

        Every field round-trips exactly (the bounds through the tagged
        number codec), so a warm engine's :class:`SweepResult`\\ s -- and
        everything derived from them -- are byte-for-byte what a cold engine
        would compute under the same budget.
        """
        imported = 0
        for key, entry in entries.items():
            try:
                lower_enc, undecided_enc, boxes, saved, early, peak = entry[:6]
                if not isinstance(key, str):
                    continue
                result = SweepResult(
                    _decode_number(lower_enc),
                    _decode_number(undecided_enc),
                    int(boxes),
                    int(saved),
                    bool(early),
                    int(peak),
                )
            except (TypeError, ValueError, KeyError, IndexError):
                continue
            self._sweep_imported[key] = result
            self._sweep_export_skip.add(key)
            # Frontier blobs (entry 7, optional) are kept raw and decoded
            # only if a deeper budget actually warm-starts from them.
            if len(entry) > 6 and isinstance(entry[6], list):
                self._sweep_frontier_blobs[key] = entry[6]
            imported += 1
        return imported

    def drain_persistent_hit_keys(self) -> Tuple[set, set]:
        """The ``(measure, sweep)`` keys answered from an import since the
        last drain.

        The batch store refreshes the GC touch stamp of these entries when a
        run merges, so entries a fleet still *reads* (but never rewrites)
        do not age out of the store.  The two kinds are kept apart so each
        merge only touches its own kind's rows.
        """
        measures, sweeps = self._persistent_keys_used, self._sweep_keys_used
        self._persistent_keys_used = set()
        self._sweep_keys_used = set()
        return measures, sweeps

    # -- maintenance -----------------------------------------------------------

    def clear(self) -> None:
        """Drop all memoized results (counters are kept)."""
        self._cache.clear()
        self._unexported.clear()
        self._sweep_cache.clear()
        self._sweep_unexported.clear()

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def sweep_cache_size(self) -> int:
        return len(self._sweep_cache)
