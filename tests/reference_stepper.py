"""The re-descent symbolic stepper, kept as a reference for differential tests.

This is the symbolic machine :mod:`repro.symbolic.execute` used before it
was rebuilt as a focused (refocusing) machine: every step re-descends from
the root of the term to the redex and rebuilds every evaluation-context
frame on the way out.  It is quadratic in context depth and recurses once
per frame, which is why it no longer lives under ``src/``; it survives here
only as the specification the focused machine is checked against.

:class:`ReferenceExplorer` is a :class:`~repro.symbolic.SymbolicExplorer`
whose path runner steps with :class:`ReferenceStepper`, so sessions built
from it exercise the real session, codec and absorb code around the old
stepping core.
"""

from typing import Optional, Tuple

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
from repro.symbolic.constraints import Constraint, Relation
from repro.symbolic.execute import (
    RecMarker,
    StepBranch,
    StepOutcome,
    StepRecCall,
    StepScore,
    StepStuck,
    StepTerm,
    StepValue,
    Strategy,
    SymbolicExplorer,
    SymbolicPath,
    _Configuration,
    as_symbolic_value,
)
from repro.symbolic.values import ConstVal, SampleVar, StarVal, SymNumeral, simplify_prim


def _is_symbolic_value(term: Term) -> bool:
    return isinstance(term, (Var, Numeral, SymNumeral, Lam, Fix, RecMarker))


class ReferenceStepper:
    """Performs single symbolic reduction steps by re-descending from the root."""

    def __init__(
        self,
        strategy: Strategy = Strategy.CBN,
        registry: Optional[PrimitiveRegistry] = None,
    ) -> None:
        self.strategy = strategy
        self.registry = registry or default_registry()

    def step(self, term: Term, next_variable: int) -> StepOutcome:
        """Reduce the unique redex of ``term``; fresh samples use ``next_variable``."""
        if _is_symbolic_value(term):
            return StepValue()
        return self._step(term, next_variable)

    # The private helpers return outcomes whose continuation terms are the
    # *redex-local* results; contexts are rebuilt on the way out.

    def _step(self, term: Term, next_variable: int) -> StepOutcome:
        if isinstance(term, App):
            return self._step_app(term, next_variable)
        if isinstance(term, If):
            return self._step_if(term, next_variable)
        if isinstance(term, Prim):
            return self._step_prim(term, next_variable)
        if isinstance(term, Sample):
            return StepTerm(SymNumeral(SampleVar(next_variable)), consumed_sample=True)
        if isinstance(term, Score):
            return self._step_score(term, next_variable)
        if isinstance(term, Var):
            return StepStuck(f"free variable {term.name!r}")
        return StepStuck(f"cannot step term {term!r}")

    def _step_app(self, term: App, next_variable: int) -> StepOutcome:
        fn, arg = term.fn, term.arg
        if not _is_symbolic_value(fn):
            return self._in_context(
                self._step(fn, next_variable), lambda t: App(t, arg)
            )
        if self.strategy is Strategy.CBV and not _is_symbolic_value(arg):
            if isinstance(fn, (Lam, Fix, RecMarker)):
                return self._in_context(
                    self._step(arg, next_variable), lambda t: App(fn, t)
                )
        if isinstance(fn, RecMarker):
            argument = as_symbolic_value(arg)
            if argument is None and self.strategy is Strategy.CBV:
                return StepStuck("recursion marker applied to a non-numeric value")
            return StepRecCall(
                argument if argument is not None else ConstVal(0),
                SymNumeral(StarVal()),
            )
        if isinstance(fn, Lam):
            return StepTerm(substitute(fn.body, {fn.var: arg}))
        if isinstance(fn, Fix):
            return StepTerm(substitute(fn.body, {fn.var: arg, fn.fvar: fn}))
        return StepStuck("application of a non-function value")

    def _step_if(self, term: If, next_variable: int) -> StepOutcome:
        guard = as_symbolic_value(term.cond)
        if guard is not None:
            if isinstance(guard, ConstVal):
                chosen = term.then if guard.value <= 0 else term.orelse
                return StepTerm(chosen)
            return StepBranch(guard, term.then, term.orelse)
        if _is_symbolic_value(term.cond):
            return StepStuck("conditional guard is not of type R")
        return self._in_context(
            self._step(term.cond, next_variable),
            lambda t: If(t, term.then, term.orelse),
        )

    def _step_prim(self, term: Prim, next_variable: int) -> StepOutcome:
        for index, argument in enumerate(term.args):
            if as_symbolic_value(argument) is not None:
                continue
            if _is_symbolic_value(argument):
                return StepStuck(f"primitive argument {index} is not of type R")
            prefix = term.args[:index]
            suffix = term.args[index + 1 :]
            return self._in_context(
                self._step(argument, next_variable),
                lambda t: Prim(term.op, prefix + (t,) + suffix),
            )
        values = [as_symbolic_value(argument) for argument in term.args]
        if any(value.contains_star() for value in values):
            return StepTerm(SymNumeral(StarVal()))
        try:
            result = simplify_prim(term.op, values, self.registry)
        except (ValueError, ZeroDivisionError, OverflowError) as error:
            return StepStuck(f"primitive {term.op!r} failed: {error}")
        return StepTerm(SymNumeral(result))

    def _step_score(self, term: Score, next_variable: int) -> StepOutcome:
        value = as_symbolic_value(term.arg)
        if value is not None:
            if isinstance(value, ConstVal):
                if value.value < 0:
                    return StepStuck("score of a negative constant")
                return StepTerm(SymNumeral(value))
            return StepScore(value, SymNumeral(value))
        if _is_symbolic_value(term.arg):
            return StepStuck("score argument is not of type R")
        return self._in_context(
            self._step(term.arg, next_variable), lambda t: Score(t)
        )

    @staticmethod
    def _in_context(outcome: StepOutcome, plug) -> StepOutcome:
        """Rebuild the surrounding evaluation context around an inner outcome."""
        if isinstance(outcome, StepTerm):
            return StepTerm(plug(outcome.term), outcome.consumed_sample)
        if isinstance(outcome, StepBranch):
            return StepBranch(outcome.guard, plug(outcome.then_term), plug(outcome.else_term))
        if isinstance(outcome, StepScore):
            return StepScore(outcome.value, plug(outcome.term))
        if isinstance(outcome, StepRecCall):
            return StepRecCall(outcome.argument, plug(outcome.term))
        return outcome


class ReferenceExplorer(SymbolicExplorer):
    """A :class:`SymbolicExplorer` that steps paths with :class:`ReferenceStepper`."""

    def __init__(self, strategy=Strategy.CBN, registry=None, stats=None) -> None:
        super().__init__(strategy, registry, stats)
        self.reference_stepper = ReferenceStepper(strategy, self.registry)

    def _run_to_event(
        self, configuration: _Configuration, max_steps: int, stats=None
    ) -> Tuple[str, object]:
        term = configuration.term
        constraints = configuration.constraints
        next_variable = configuration.next_variable
        steps = configuration.steps
        branches = configuration.branches
        executed = 0
        try:
            while steps < max_steps:
                outcome = self.reference_stepper.step(term, next_variable)
                if isinstance(outcome, StepValue):
                    return (
                        "terminated",
                        SymbolicPath(constraints, next_variable, steps, term, branches),
                    )
                if isinstance(outcome, StepTerm):
                    term = outcome.term
                    if outcome.consumed_sample:
                        next_variable += 1
                    steps += 1
                    executed += 1
                    continue
                if isinstance(outcome, StepScore):
                    constraints = constraints.add(Constraint(outcome.value, Relation.GE))
                    term = outcome.term
                    steps += 1
                    executed += 1
                    continue
                if isinstance(outcome, StepBranch):
                    executed += 1  # the step into the branches
                    left = _Configuration(
                        outcome.then_term,
                        constraints.add(Constraint(outcome.guard, Relation.LE)),
                        next_variable,
                        steps + 1,
                        branches + (True,),
                    )
                    right = _Configuration(
                        outcome.else_term,
                        constraints.add(Constraint(outcome.guard, Relation.GT)),
                        next_variable,
                        steps + 1,
                        branches + (False,),
                    )
                    return ("branch", [left, right])
                if isinstance(outcome, StepRecCall):
                    return ("stuck", "unexpected recursion marker during exploration")
                if isinstance(outcome, StepStuck):
                    return ("stuck", outcome.reason)
                raise TypeError(f"unexpected step outcome {outcome!r}")
            configuration.term = term
            configuration.constraints = constraints
            configuration.next_variable = next_variable
            configuration.steps = steps
            return ("unfinished", None)
        finally:
            if stats is None:
                stats = self.stats
            if stats is not None:
                stats.symbolic_steps += executed
