"""Symbolic small-step execution and path exploration (App. B.5, Sec. 7.1).

The executor evaluates a closed SPCF term on a trace of *sample variables*:
every ``sample`` redex is resolved by a fresh variable ``a_i`` and every
conditional whose guard still mentions sample variables *forks* the execution,
recording the guard constraint (``guard <= 0`` on the left branch, ``guard >
0`` on the right branch) -- this is precisely the conditional-oracle semantics
of Fig. 11/12.  A terminating path therefore consists of

* the constraint set over the sample variables it introduced,
* the number of sample variables and of reduction steps,
* the branch choices taken (the conditional oracle ``kappa``).

Exploration enumerates terminating paths up to a per-path step budget (and an
optional bound on the number of explored paths); the measures of their
constraint sets sum to a lower bound on ``Pterm`` (Thm. 3.4 + Prop. B.8),
which is what :mod:`repro.lowerbound` computes.

Exploration is *resumable*: an :class:`ExplorationSession` keeps every
configuration ever created -- terminated, stuck, branched, or suspended on
the step budget -- ordered by its position in the breadth-first traversal,
so :meth:`ExplorationSession.extend` deepens the exploration by resuming the
suspended frontier instead of re-deriving every shallow path from the root.
The completeness result (Thm. 3.8) is inherently anytime -- the bound only
improves with the budget -- and the session makes that operational: each
``extend`` returns an :class:`ExplorationResult` *bit-identical* to a fresh
:meth:`SymbolicExplorer.explore` at the same budget, while executing each
reduction step at most once across the whole schedule.

The same stepping machinery supports a call-by-value mode and a distinguished
*recursion marker*; the AST verifier (Sec. 6) uses those to build symbolic
execution trees of recursion bodies.

Stepping is a *focused* machine (refocusing, Danvy & Nielsen, BRICS
RS-04-26).  A path's configuration is the subterm in focus plus an explicit
stack of evaluation-context frames -- ``[] M``, CbV ``V []``, ``if([], N,
P)``, ``f(r.., [], M..)`` and ``score([])``.  The path runner decomposes a
node's term once when it resumes the node, then contracts and refocuses
locally (a value in focus pops one frame), so a step costs amortised O(1)
whatever the context depth.  The context is plugged back into a whole term
only at a branch, a suspension or termination: configurations, node keys
and the frontier codec only ever see whole terms.  The whole-term
:meth:`SymbolicStepper.step` is the same transition (decompose from the
root, contract, plug).  Substitution relies on the free-variable memo of
:func:`repro.spcf.syntax.free_variables`, kept on each immutable term node
outside its dataclass fields.

Invariants
----------

* **Bit-identity of resumption.**  For every budget ``d`` and every schedule
  of extends reaching it, ``session.extend(d)`` returns an
  :class:`ExplorationResult` equal -- path list, path order, constraint
  sets, statistics included -- to ``SymbolicExplorer.explore(term, d)`` from
  scratch.  The frontier is ordered by breadth-first discovery index, so
  resumption changes *when* a configuration is stepped, never *whether* or
  *in which output position*.
* **Monotone budgets.**  Budgets within a session are non-decreasing and
  path sets only grow with them; every terminated path reported at depth
  ``d`` is reported at every depth ``d' >= d``.  This is what makes the
  anytime lower bound monotone.
* **Each step once.**  Across a whole schedule, each small-step reduction is
  executed at most once; deepening costs only the new frontier work.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import repro.telemetry as telemetry
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.spcf.syntax import (
    App,
    Fix,
    If,
    Lam,
    Numeral,
    Prim,
    Sample,
    Score,
    Term,
    Var,
    substitute,
)
from repro.symbolic.constraints import Constraint, ConstraintSet, Relation
from repro.symbolic.values import (
    ConstVal,
    SampleVar,
    StarVal,
    SymNumeral,
    SymVal,
    simplify_prim,
)


@dataclass(frozen=True)
class RecMarker(Term):
    """The distinguished symbol ``mu`` standing for the recursive function.

    The counting semantics of Sec. 5.2 analyses ``body(r) = M[r/x, mu/phi]``:
    the recursive function is replaced by this marker, and applying the marker
    to a value is recorded as a recursive call whose outcome is the unknown
    numeral ``star``.
    """


class Strategy(enum.Enum):
    """Evaluation strategy of the symbolic executor."""

    CBN = "call-by-name"
    CBV = "call-by-value"


def as_symbolic_value(term: Term) -> Optional[SymVal]:
    """View a term-level constant of type R as a symbolic value, if it is one."""
    if isinstance(term, Numeral):
        return ConstVal(term.value)
    if isinstance(term, SymNumeral):
        return term.value
    return None


# The symbolic values: terms the machine never reduces.
_VALUE_TYPES = (Var, Numeral, SymNumeral, Lam, Fix, RecMarker)


# ---------------------------------------------------------------------------
# One symbolic step.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepValue:
    """The term is already a value."""


@dataclass(frozen=True)
class StepTerm:
    """A deterministic step to ``term``; ``consumed_sample`` reports whether a
    fresh sample variable was introduced."""

    term: Term
    consumed_sample: bool = False


@dataclass(frozen=True)
class StepBranch:
    """A conditional on a non-constant symbolic guard: the execution forks."""

    guard: SymVal
    then_term: Term
    else_term: Term


@dataclass(frozen=True)
class StepScore:
    """A ``score`` on a non-constant symbolic value: records ``value >= 0``."""

    value: SymVal
    term: Term


@dataclass(frozen=True)
class StepRecCall:
    """An application of the recursion marker to a value (CbV counting mode)."""

    argument: SymVal
    term: Term


@dataclass(frozen=True)
class StepStuck:
    """No rule applies."""

    reason: str


StepOutcome = Union[StepValue, StepTerm, StepBranch, StepScore, StepRecCall, StepStuck]


# Evaluation-context frames.  A focused configuration is the subterm in focus
# plus a stack of frames, innermost last; each frame is a tuple tagged by its
# kind, and ``[]`` marks where the focus plugs in.
_FN = 0  # ``[] M``: (_FN, M)
_ARG = 1  # CbV ``V []``: (_ARG, V)
_IF = 2  # ``if([], N, P)``: (_IF, N, P)
_PRIM = 3  # ``f(r.., [], M..)``: (_PRIM, f, (r..), (M..))
_SCORE = 4  # ``score([])``: (_SCORE,)

# Transitions of the focused machine (see ``SymbolicStepper._advance``);
# each is a tuple tagged by its kind, the redex-local counterpart of a
# ``Step*`` outcome.
_DONE = 0  # (_DONE, value): the whole term is a value
_REDUCED = 1  # (_REDUCED, contractum, consumed_sample)
_SCORED = 2  # (_SCORED, value, contractum)
_FORKED = 3  # (_FORKED, guard, then_term, else_term)
_RECURSED = 4  # (_RECURSED, argument, contractum)
_NO_RULE = 5  # (_NO_RULE, reason)


def _plug_frame(frame: tuple, term: Term) -> Term:
    """Fill the hole of one frame with ``term``."""
    kind = frame[0]
    if kind == _FN:
        return App(term, frame[1])
    if kind == _ARG:
        return App(frame[1], term)
    if kind == _IF:
        return If(term, frame[1], frame[2])
    if kind == _PRIM:
        return Prim(frame[1], frame[2] + (term,) + frame[3])
    return Score(term)


def _plug(frames: List[tuple], term: Term) -> Term:
    """Plug ``term`` into the evaluation context ``frames``."""
    for frame in reversed(frames):
        term = _plug_frame(frame, term)
    return term


class SymbolicStepper:
    """Symbolic reduction under a chosen strategy, as a focused machine.

    :meth:`_advance` refocuses from the subterm in focus to the next redex
    and contracts it, keeping the evaluation context as a frame stack; a
    caller that keeps the stack between transitions (the explorer's path
    runner) pays amortised O(1) per step.  :meth:`step` is the whole-term
    view of the same transition: decompose from the root, contract, plug.
    """

    def __init__(
        self,
        strategy: Strategy = Strategy.CBN,
        registry: Optional[PrimitiveRegistry] = None,
    ) -> None:
        self.strategy = strategy
        self.registry = registry or default_registry()

    def step(self, term: Term, next_variable: int) -> StepOutcome:
        """Reduce the unique redex of ``term``; fresh samples use ``next_variable``."""
        frames: List[tuple] = []
        transition = self._advance(term, frames, next_variable)
        kind = transition[0]
        if kind == _DONE:
            return StepValue()
        if kind == _REDUCED:
            return StepTerm(_plug(frames, transition[1]), transition[2])
        if kind == _SCORED:
            return StepScore(transition[1], _plug(frames, transition[2]))
        if kind == _FORKED:
            return StepBranch(
                transition[1], _plug(frames, transition[2]), _plug(frames, transition[3])
            )
        if kind == _RECURSED:
            return StepRecCall(transition[1], _plug(frames, transition[2]))
        return StepStuck(transition[1])

    def _advance(self, term: Term, frames: List[tuple], next_variable: int) -> tuple:
        """Refocus from ``term`` in context ``frames`` and contract the redex.

        ``frames`` is updated in place to the redex's context, so plugging the
        returned contractum into it gives the reduct of the whole term.
        Returns ``(_DONE, term)`` when the whole term is a value.
        """
        cbv = self.strategy is Strategy.CBV
        while True:
            if isinstance(term, _VALUE_TYPES):
                if not frames:
                    return (_DONE, term)
                term = _plug_frame(frames.pop(), term)
            if isinstance(term, App):
                fn, arg = term.fn, term.arg
                if not isinstance(fn, _VALUE_TYPES):
                    frames.append((_FN, arg))
                    term = fn
                    continue
                if isinstance(fn, (Lam, Fix, RecMarker)):
                    if cbv and not isinstance(arg, _VALUE_TYPES):
                        frames.append((_ARG, fn))
                        term = arg
                        continue
                    if isinstance(fn, Lam):
                        return (_REDUCED, substitute(fn.body, {fn.var: arg}), False)
                    if isinstance(fn, Fix):
                        return (
                            _REDUCED,
                            substitute(fn.body, {fn.var: arg, fn.fvar: fn}),
                            False,
                        )
                    # The outcome of the recursive call is the unknown
                    # numeral ``star`` (Fig. 5); the continuation resumes
                    # with it in redex position.
                    argument = as_symbolic_value(arg)
                    if argument is None and cbv:
                        return (_NO_RULE, "recursion marker applied to a non-numeric value")
                    return (
                        _RECURSED,
                        argument if argument is not None else ConstVal(0),
                        SymNumeral(StarVal()),
                    )
                return (_NO_RULE, "application of a non-function value")
            if isinstance(term, If):
                guard = as_symbolic_value(term.cond)
                if guard is not None:
                    if isinstance(guard, ConstVal):
                        return (
                            _REDUCED,
                            term.then if guard.value <= 0 else term.orelse,
                            False,
                        )
                    return (_FORKED, guard, term.then, term.orelse)
                if isinstance(term.cond, _VALUE_TYPES):
                    return (_NO_RULE, "conditional guard is not of type R")
                frames.append((_IF, term.then, term.orelse))
                term = term.cond
                continue
            if isinstance(term, Prim):
                args = term.args
                values = []
                for index, argument in enumerate(args):
                    value = as_symbolic_value(argument)
                    if value is not None:
                        values.append(value)
                        continue
                    if isinstance(argument, _VALUE_TYPES):
                        return (_NO_RULE, f"primitive argument {index} is not of type R")
                    frames.append((_PRIM, term.op, args[:index], args[index + 1 :]))
                    term = argument
                    break
                else:
                    if any(value.contains_star() for value in values):
                        # f(..., star, ...) reduces to star (Fig. 5).
                        return (_REDUCED, SymNumeral(StarVal()), False)
                    try:
                        result = simplify_prim(term.op, values, self.registry)
                    except (ValueError, ZeroDivisionError, OverflowError) as error:
                        return (_NO_RULE, f"primitive {term.op!r} failed: {error}")
                    return (_REDUCED, SymNumeral(result), False)
                continue
            if isinstance(term, Sample):
                return (_REDUCED, SymNumeral(SampleVar(next_variable)), True)
            if isinstance(term, Score):
                value = as_symbolic_value(term.arg)
                if value is not None:
                    if isinstance(value, ConstVal):
                        if value.value < 0:
                            return (_NO_RULE, "score of a negative constant")
                        return (_REDUCED, SymNumeral(value), False)
                    return (_SCORED, value, SymNumeral(value))
                if isinstance(term.arg, _VALUE_TYPES):
                    return (_NO_RULE, "score argument is not of type R")
                frames.append((_SCORE,))
                term = term.arg
                continue
            return (_NO_RULE, f"cannot step term {term!r}")


# ---------------------------------------------------------------------------
# Path exploration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicPath:
    """A terminating symbolic execution path.

    ``constraints`` characterise exactly the standard traces of length
    ``num_variables`` that follow this path; ``steps`` is the number of
    reduction steps to the value ``result`` and ``branches`` the conditional
    oracle (``True`` = left/then branch).
    """

    constraints: ConstraintSet
    num_variables: int
    steps: int
    result: Term
    branches: Tuple[bool, ...]


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of a bounded exploration of the symbolic execution tree."""

    terminated: Tuple[SymbolicPath, ...]
    unfinished: int
    stuck: int
    exhausted_path_budget: bool

    @property
    def complete(self) -> bool:
        """True iff every path reached a value within the budgets."""
        return self.unfinished == 0 and not self.exhausted_path_budget


@dataclass
class _Configuration:
    term: Term
    constraints: ConstraintSet
    next_variable: int
    steps: int
    branches: Tuple[bool, ...]


# Session-node states: a node is the lifetime record of one configuration of
# the breadth-first traversal.  SUSPENDED nodes carry a live configuration
# that a deeper budget can resume; the other states are final.
_SUSPENDED = 0
_TERMINATED = 1
_STUCK = 2
_BRANCHED = 3

_NodeKey = Tuple[int, Tuple[int, ...]]


class _StepCounter:
    """Session-local symbolic-step count.

    Every extend routes :meth:`SymbolicExplorer._run_to_event` through this
    holder and mirrors the delta into the shared stats sink, so the session
    always knows how much stepping *it* performed -- the frontier codec
    persists these counters, which is what lets a restored process report
    the same ``PerfStats`` as an uninterrupted run.
    """

    __slots__ = ("symbolic_steps",)

    def __init__(self) -> None:
        self.symbolic_steps = 0


class FrontierCapError(RuntimeError):
    """Absorbing shard results would overrun the session's ``max_paths`` cap.

    Shards each run under the full cap, so their union can exceed it -- a
    single-process extend would instead have stopped early and left nodes
    queued.  Callers catch this and fall back to extending the pre-split
    session inline, which reproduces the capped result exactly.
    """


class _SessionNode:
    """One configuration of the branching tree, across every budget.

    ``key`` is the node's position in the breadth-first pop order: level
    first, then the branch string (with the then-branch before the
    else-branch, matching the push order of the historical deque traversal).
    The key is budget-independent, which is what lets a resumed session
    interleave newly discovered children into exactly the positions a fresh
    exploration would pop them at.
    """

    __slots__ = ("key", "state", "configuration", "path", "reason", "started")

    def __init__(self, key: _NodeKey, configuration: _Configuration) -> None:
        self.key = key
        self.state = _SUSPENDED
        self.configuration: Optional[_Configuration] = configuration
        self.path: Optional[SymbolicPath] = None
        self.reason: Optional[str] = None
        self.started = False  # whether any extend has stepped this node yet


def _node_key(branches: Tuple[bool, ...]) -> _NodeKey:
    return (len(branches), tuple(0 if branch else 1 for branch in branches))


class ExplorationSession:
    """A resumable, anytime exploration of one closed term's branching tree.

    The session owns every node of the traversal.  :meth:`extend` replays the
    breadth-first pop order under a (non-decreasing) per-path step budget:
    already-resolved nodes replay their recorded outcome in O(1), suspended
    nodes resume stepping from exactly where the previous budget stopped, and
    nodes that fork enqueue their children at the breadth-first position a
    fresh exploration would give them.  Consequently

    * ``session.extend(d)`` returns an :class:`ExplorationResult` equal --
      terminated tuple, order, counts, budget flag -- to
      ``SymbolicExplorer.explore(term, d, max_paths)`` on a fresh explorer,
    * no reduction step is ever executed twice across a schedule of extends,
    * a ``max_paths`` cap is stable under resumption: nodes beyond the cap
      stay queued (never silently dropped) and every subsequent result keeps
      reporting ``exhausted_path_budget=True`` until the budget admits them.
    """

    def __init__(
        self,
        explorer: "SymbolicExplorer",
        term: Term,
        max_paths: int = 100_000,
        stats=None,
    ) -> None:
        self._explorer = explorer
        self.max_paths = max_paths
        self.stats = stats if stats is not None else explorer.stats
        root = _SessionNode(_node_key(()), _Configuration(term, ConstraintSet(), 0, 0, ()))
        self._nodes: List[Tuple[_NodeKey, _SessionNode]] = [(root.key, root)]
        self._max_steps = 0
        self._last_result: Optional[ExplorationResult] = None
        # Session-local counters, mirrored into ``self.stats`` as they grow.
        # The frontier codec persists them (see :mod:`repro.symbolic.codec`).
        self._step_counter = _StepCounter()
        self._counter_resumed = 0
        self._counter_peak = 0

    @classmethod
    def _restore(
        cls,
        explorer: "SymbolicExplorer",
        *,
        max_paths: int,
        max_steps: int,
        nodes: List[Tuple[_NodeKey, _SessionNode]],
        counters: Tuple[int, int, int],
        stats=None,
        credit_stats: bool = True,
    ) -> "ExplorationSession":
        """Rebuild a session from decoded state (used by the frontier codec).

        ``counters`` is the persisted ``(symbolic_steps, paths_resumed,
        frontier_peak)`` triple; with ``credit_stats`` (the default) it is
        credited to the stats sink so the restored process reports the same
        totals an uninterrupted run would.  Pass ``credit_stats=False`` when
        the sink already counted that work -- a same-process restore, e.g. a
        daemon re-hydrating a session it evicted earlier.
        """
        session = cls.__new__(cls)
        session._explorer = explorer
        session.max_paths = max_paths
        session.stats = stats if stats is not None else explorer.stats
        session._nodes = nodes
        session._max_steps = max_steps
        session._last_result = None
        session._step_counter = _StepCounter()
        steps, resumed, peak = counters
        session._step_counter.symbolic_steps = steps
        session._counter_resumed = resumed
        session._counter_peak = peak
        sink = session.stats
        if sink is not None:
            if credit_stats:
                sink.symbolic_steps += steps
                sink.paths_resumed += resumed
                if hasattr(sink, "frontier_restores"):
                    sink.frontier_restores += 1
            if peak > sink.frontier_peak:
                sink.frontier_peak = peak
        return session

    @property
    def max_steps(self) -> int:
        """The deepest per-path step budget any extend has reached."""
        return self._max_steps

    @property
    def result(self) -> Optional[ExplorationResult]:
        """The most recent :class:`ExplorationResult` (``None`` before any extend)."""
        return self._last_result

    @property
    def frontier_size(self) -> int:
        """Configurations a deeper budget could still advance (suspended or queued)."""
        return sum(1 for _, node in self._nodes if node.state == _SUSPENDED)

    def extend(self, max_steps: int) -> ExplorationResult:
        """Deepen the exploration to a per-path budget of ``max_steps``.

        Budgets must be non-decreasing across extends (resolved outcomes
        cannot be un-resolved); re-extending to the current budget replays
        the recorded result without stepping.
        """
        if max_steps < self._max_steps:
            raise ValueError(
                f"exploration budgets are non-decreasing: asked for {max_steps} "
                f"after {self._max_steps}"
            )
        self._max_steps = max_steps
        writer = telemetry.active()
        token = (
            writer.begin("explore", budget=max_steps) if writer is not None else None
        )
        stats = self.stats
        counter = self._step_counter
        steps_before = counter.symbolic_steps
        heap = self._nodes
        heapq.heapify(heap)  # kept sorted between extends; heapify is then O(n)
        processed: List[Tuple[_NodeKey, _SessionNode]] = []
        terminated: List[SymbolicPath] = []
        unfinished = 0
        stuck = 0
        explored = 0
        exhausted = False
        # The live frontier: configurations a deeper budget could still
        # advance (suspended nodes, processed or queued) -- the same set
        # :attr:`frontier_size` reports between extends.
        live = sum(1 for _, node in heap if node.state == _SUSPENDED)
        peak = live
        try:
            while heap:
                if explored >= self.max_paths:
                    exhausted = True
                    break
                key, node = heapq.heappop(heap)
                processed.append((key, node))
                explored += 1
                state = node.state
                if state == _TERMINATED:
                    terminated.append(node.path)
                    continue
                if state == _STUCK:
                    stuck += 1
                    continue
                if state == _BRANCHED:
                    continue
                # Suspended: resume (or start) stepping under the new budget.
                # Only resumes with actual headroom count -- each one stands
                # for a re-execution from the root the session avoided.
                if node.started and node.configuration.steps < max_steps:
                    self._counter_resumed += 1
                    if stats is not None:
                        stats.paths_resumed += 1
                node.started = True
                kind, payload = self._explorer._run_to_event(
                    node.configuration, max_steps, stats=counter
                )
                if kind == "terminated":
                    node.state = _TERMINATED
                    node.path = payload
                    node.configuration = None
                    terminated.append(payload)
                    live -= 1
                elif kind == "stuck":
                    node.state = _STUCK
                    node.reason = payload
                    node.configuration = None
                    stuck += 1
                    live -= 1
                elif kind == "branch":
                    node.state = _BRANCHED
                    node.configuration = None
                    for configuration in payload:
                        child = _SessionNode(
                            _node_key(configuration.branches), configuration
                        )
                        heapq.heappush(heap, (child.key, child))
                    live += 1  # the node resolved, its two children are live
                    if live > peak:
                        peak = live
                else:  # unfinished: the budget ran out mid-path; stays suspended
                    unfinished += 1
        finally:
            # Stepping goes through the session-local counter; mirror the
            # delta into the shared sink even if an extend is interrupted.
            if stats is not None:
                stats.symbolic_steps += counter.symbolic_steps - steps_before
        # Nodes beyond the path cap stay queued for the next extend; their
        # keys all exceed every processed key, so the node list stays sorted.
        self._nodes = processed + sorted(heap)
        if peak > self._counter_peak:
            self._counter_peak = peak
        if stats is not None and peak > stats.frontier_peak:
            stats.frontier_peak = peak
        result = ExplorationResult(tuple(terminated), unfinished, stuck, exhausted)
        self._last_result = result
        if token is not None:
            writer.end(token, terminated=len(terminated), frontier=live)
        return result

    def extend_until(
        self,
        gap=None,
        target_gap=0,
        max_paths: Optional[int] = None,
        step_increment: int = 50,
        max_steps: int = 10_000,
    ) -> ExplorationResult:
        """Deepen in ``step_increment`` strides until a stop rule fires.

        Stops as soon as the exploration is complete, ``gap(result)`` (an
        arbitrary caller-supplied metric -- the lower-bound engine passes its
        certified measure slack) drops to ``target_gap``, at least
        ``max_paths`` terminated paths have been found, or the per-path
        budget reaches ``max_steps``.  Returns the last result.
        """
        if step_increment < 1:
            raise ValueError("step_increment must be at least 1")
        budget = self._max_steps
        if budget >= max_steps:
            # Already past the ceiling: replay the current budget's result
            # (budgets are non-decreasing, so it cannot shrink back).
            return self.extend(budget)
        while True:
            budget = min(budget + step_increment, max_steps)
            result = self.extend(budget)
            if result.complete:
                return result
            if gap is not None and gap(result) <= target_gap:
                return result
            if max_paths is not None and len(result.terminated) >= max_paths:
                return result
            if budget >= max_steps:
                return result

    def absorb(self, shards: List["ExplorationSession"], depth: int) -> None:
        """Merge shard sessions extended to ``depth`` back into this session.

        The distributed scheduler splits this session's suspended frontier
        into sub-sessions (:func:`repro.symbolic.codec.split_session`), has
        workers extend each to ``depth``, and absorbs the results here.  The
        merge is purely structural: shard node lists replace the suspended
        nodes they descended from, keyed by the budget-independent
        breadth-first keys, so the merged node list is exactly the one a
        single-process ``extend(depth)`` would have produced.  Counters are
        reconciled exactly:

        * ``symbolic_steps`` / ``paths_resumed`` are summed from the shard
          counters (both are per-node properties, independent of the global
          pop interleaving);
        * ``frontier_peak`` is recomputed by replaying the global pop order
          (key order) over the merged nodes with their known final states --
          the same ``live`` trajectory the single-process extend walks.

        After absorbing, call ``extend(depth)``: every node replays in O(1)
        (suspended nodes have no budget headroom left), rebuilding the
        :class:`ExplorationResult` through the ordinary code path --
        bit-identical to the single-process run.

        Raises :class:`FrontierCapError` when the merged node count exceeds
        ``max_paths`` (a single-process extend would have stopped early; the
        caller must fall back to an inline extend) and :class:`ValueError`
        when the shards do not exactly cover the suspended frontier.
        """
        if depth < self._max_steps:
            raise ValueError(
                f"exploration budgets are non-decreasing: asked for {depth} "
                f"after {self._max_steps}"
            )
        history: dict = {}
        frontier_keys = set()
        for key, node in self._nodes:
            if node.state == _SUSPENDED:
                frontier_keys.add(key)
            else:
                history[key] = node
        merged = dict(history)
        shard_steps = 0
        shard_resumed = 0
        covered = set()
        for shard in shards:
            if shard.max_steps != depth:
                raise ValueError(
                    f"shard extended to {shard.max_steps}, expected {depth}"
                )
            shard_steps += shard._step_counter.symbolic_steps
            shard_resumed += shard._counter_resumed
            for key, node in shard._nodes:
                if key in history:
                    raise ValueError(
                        f"shard node {key!r} collides with resolved history"
                    )
                if key in covered or (key in merged and key not in frontier_keys):
                    raise ValueError(f"shards overlap on node {key!r}")
                covered.add(key)
                merged[key] = node
        missing = frontier_keys - covered
        if missing:
            raise ValueError(
                f"shards cover only {len(frontier_keys) - len(missing)} of "
                f"{len(frontier_keys)} frontier nodes"
            )
        if len(merged) > self.max_paths:
            raise FrontierCapError(
                f"merged exploration has {len(merged)} nodes, "
                f"max_paths is {self.max_paths}"
            )
        nodes = sorted(merged.items())
        # Replay the global pop order with known final states to recover the
        # exact ``live`` trajectory (see ``extend``): resolved history nodes
        # replay, everything else was suspended when popped.
        live = len(frontier_keys)
        peak = live
        for key, node in nodes:
            if key in history:
                continue
            if node.state in (_TERMINATED, _STUCK):
                live -= 1
            elif node.state == _BRANCHED:
                live += 1
                if live > peak:
                    peak = live
        self._nodes = nodes
        self._step_counter.symbolic_steps += shard_steps
        self._counter_resumed += shard_resumed
        if peak > self._counter_peak:
            self._counter_peak = peak
        stats = self.stats
        if stats is not None:
            stats.symbolic_steps += shard_steps
            stats.paths_resumed += shard_resumed
            if peak > stats.frontier_peak:
                stats.frontier_peak = peak


class SymbolicExplorer:
    """Enumerates terminating symbolic paths of a closed SPCF term."""

    def __init__(
        self,
        strategy: Strategy = Strategy.CBN,
        registry: Optional[PrimitiveRegistry] = None,
        stats=None,
    ) -> None:
        self.registry = registry or default_registry()
        self.stepper = SymbolicStepper(strategy, self.registry)
        # Optional counter sink: any object with ``symbolic_steps`` /
        # ``paths_resumed`` / ``frontier_peak`` attributes (in practice the
        # measure engine's PerfStats; kept duck-typed to avoid a geometry
        # import from the symbolic layer).
        self.stats = stats

    def session(
        self, term: Term, max_paths: int = 100_000, stats=None
    ) -> ExplorationSession:
        """A resumable exploration of ``term`` (see :class:`ExplorationSession`)."""
        return ExplorationSession(
            self, term, max_paths=max_paths, stats=stats if stats is not None else self.stats
        )

    def explore(
        self,
        term: Term,
        max_steps_per_path: int = 500,
        max_paths: int = 100_000,
    ) -> ExplorationResult:
        """Enumerate terminating paths with at most ``max_steps_per_path`` steps each.

        The exploration is a breadth-first traversal of the (binary) branching
        tree, so when the ``max_paths`` budget is exhausted the paths already
        returned are exactly those with the fewest branch decisions -- the
        bound is an anytime result that only improves with a larger budget.
        Paths still running when their step budget is exhausted are counted in
        ``unfinished`` so that callers know whether the returned set of paths
        is exhaustive up to that depth.

        A one-shot convenience around :class:`ExplorationSession`: callers
        that deepen repeatedly should hold a session instead and ``extend``
        it -- the results are bit-identical either way.
        """
        return self.session(term, max_paths=max_paths).extend(max_steps_per_path)

    def _run_to_event(
        self, configuration: _Configuration, max_steps: int, stats=None
    ) -> Tuple[str, object]:
        """Step one path until it terminates, sticks, branches or runs out of budget.

        The configuration's term is decomposed once, on entry; from then on
        the focused machine keeps its frame stack and refocuses locally.  The
        context is plugged back into a whole term only where a term leaves
        the machine: at a branch (each child's term) and at suspension (the
        configuration keeps the whole term, so node keys and the frontier
        codec never see a frame stack).  At termination the frame stack is
        empty and the focus is the whole value.
        """
        term = configuration.term
        constraints = configuration.constraints
        next_variable = configuration.next_variable
        steps = configuration.steps
        branches = configuration.branches
        frames: List[tuple] = []
        advance = self.stepper._advance
        executed = 0
        try:
            while steps < max_steps:
                transition = advance(term, frames, next_variable)
                kind = transition[0]
                if kind == _REDUCED:
                    term = transition[1]
                    if transition[2]:
                        next_variable += 1
                    steps += 1
                    executed += 1
                    continue
                if kind == _SCORED:
                    constraints = constraints.add(Constraint(transition[1], Relation.GE))
                    term = transition[2]
                    steps += 1
                    executed += 1
                    continue
                if kind == _DONE:
                    return (
                        "terminated",
                        SymbolicPath(
                            constraints, next_variable, steps, transition[1], branches
                        ),
                    )
                if kind == _FORKED:
                    executed += 1  # the step into the branches
                    guard = transition[1]
                    left = _Configuration(
                        _plug(frames, transition[2]),
                        constraints.add(Constraint(guard, Relation.LE)),
                        next_variable,
                        steps + 1,
                        branches + (True,),
                    )
                    right = _Configuration(
                        _plug(frames, transition[3]),
                        constraints.add(Constraint(guard, Relation.GT)),
                        next_variable,
                        steps + 1,
                        branches + (False,),
                    )
                    return ("branch", [left, right])
                if kind == _RECURSED:
                    return ("stuck", "unexpected recursion marker during exploration")
                return ("stuck", transition[1])
            # Budget exhausted mid-path: record the progress in place so a
            # deeper budget resumes here instead of re-deriving the prefix.
            configuration.term = _plug(frames, term)
            configuration.constraints = constraints
            configuration.next_variable = next_variable
            configuration.steps = steps
            return ("unfinished", None)
        finally:
            if stats is None:
                stats = self.stats
            if stats is not None:
                stats.symbolic_steps += executed
