"""The focused symbolic machine against the re-descent reference stepper.

:mod:`repro.symbolic.execute` steps paths with a focused machine: the redex
in focus plus an explicit evaluation-context frame stack, refocused locally
after every contraction and plugged back into a whole term only at a branch,
a suspension or termination.  These tests pin down that nothing observable
changed against the re-descent stepper it replaced (kept in
``reference_stepper.py``):

* every registered program explores to the same :class:`ExplorationResult`,
  the same ``PerfStats`` stepping counters and the same ``encode_session``
  bytes, fresh at several budgets and across a resumed ``extend`` schedule
  that round-trips the frontier codec between depths;
* the whole-term :meth:`SymbolicStepper.step` API returns the same outcomes;
* the budget boundary is unchanged: a value reached at exactly the budget
  stays unfinished, a branch on the final step forks into unfinished
  children, and suspending mid-context then resuming matches a fresh run;
* the memoised ``free_variables`` equals an uncached walk, and the memo is
  invisible to ``==``, ``hash``, ``repr``, ``dataclasses.fields``, pickling,
  the frontier codec and the fleet's store.
"""

import dataclasses
import json
import pickle
from fractions import Fraction

import pytest

from reference_stepper import ReferenceExplorer, ReferenceStepper
from repro.geometry.engine import MeasureEngine
from repro.geometry.stats import PerfStats
from repro.programs import all_programs, sigmoid_tri_branching
from repro.spcf.syntax import (
    App,
    Fix,
    If,
    Lam,
    Numeral,
    Prim,
    Sample,
    Score,
    Var,
    free_variables,
    is_extension_leaf,
    subterms,
    substitute,
)
from repro.symbolic import SymbolicExplorer, decode_session, encode_session
from repro.symbolic.execute import (
    RecMarker,
    StepBranch,
    StepRecCall,
    StepScore,
    StepStuck,
    StepTerm,
    StepValue,
    Strategy,
    SymbolicStepper,
)
from repro.symbolic.values import ArgVal, ConstVal, SymNumeral

_PROGRAMS = all_programs()
_OTHER = {Strategy.CBN: Strategy.CBV, Strategy.CBV: Strategy.CBN}


def _budgets(name):
    """Budgets that reach past the padded guard of the ``pad=`` programs."""
    return (90, 180, 260) if "pad=" in name else (4, 17, 40)


def _explore(explorer_class, term, strategy, budgets, roundtrip=False):
    """Per budget: result, stepping counters and frontier bytes of one session.

    With ``roundtrip`` the session is encoded, dumped to JSON and decoded
    before every extend after the first -- a resumed schedule as the store
    replays it.
    """
    stats = PerfStats()
    explorer = explorer_class(strategy, stats=stats)
    session = explorer.session(term)
    rows = []
    for budget in budgets:
        if roundtrip and rows:
            stored = json.loads(json.dumps(encode_session(session)))
            session = decode_session(stored, explorer, credit_stats=False)
        result = session.extend(budget)
        rows.append(
            (
                result,
                (stats.symbolic_steps, stats.paths_resumed, stats.frontier_peak),
                json.dumps(encode_session(session)),
            )
        )
    return rows


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_exploration_matches_the_reference_stepper(name):
    program = _PROGRAMS[name]
    budgets = _budgets(name)
    for budget in budgets:
        fresh = _explore(SymbolicExplorer, program.applied, program.strategy, (budget,))
        reference = _explore(
            ReferenceExplorer, program.applied, program.strategy, (budget,)
        )
        assert fresh == reference, f"{name} diverged at budget {budget}"
    resumed = _explore(
        SymbolicExplorer, program.applied, program.strategy, budgets, roundtrip=True
    )
    reference = _explore(
        ReferenceExplorer, program.applied, program.strategy, budgets, roundtrip=True
    )
    assert resumed == reference, f"{name} diverged on the resumed schedule"


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_other_strategy_matches_the_reference_stepper(name):
    program = _PROGRAMS[name]
    strategy = _OTHER[program.strategy]
    budget = _budgets(name)[1]
    assert _explore(SymbolicExplorer, program.applied, strategy, (budget,)) == (
        _explore(ReferenceExplorer, program.applied, strategy, (budget,))
    )


def _step_along(stepper, term, limit=80):
    """Outcomes of stepping ``term``, following every first branch."""
    outcomes = []
    next_variable = 0
    for _ in range(limit):
        outcome = stepper.step(term, next_variable)
        outcomes.append(outcome)
        if isinstance(outcome, (StepValue, StepStuck)):
            break
        if isinstance(outcome, StepTerm):
            next_variable += outcome.consumed_sample
            term = outcome.term
        elif isinstance(outcome, StepBranch):
            term = outcome.then_term
        else:
            assert isinstance(outcome, (StepScore, StepRecCall))
            term = outcome.term
    return outcomes


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
@pytest.mark.parametrize("strategy", [Strategy.CBN, Strategy.CBV])
def test_step_api_matches_the_reference_stepper(name, strategy):
    program = _PROGRAMS[name]
    fix = program.fix
    # The applied program, and the recursion body the AST verifier and the
    # counting semantics step: ``M[(*)/x, mu/phi]``.
    body = substitute(fix.body, {fix.var: SymNumeral(ArgVal()), fix.fvar: RecMarker()})
    for term in (program.applied, body):
        assert _step_along(SymbolicStepper(strategy), term) == _step_along(
            ReferenceStepper(strategy), term
        )


@pytest.mark.parametrize(
    "term",
    [
        Var("x"),
        App(Numeral(1), Sample()),
        App(Var("f"), Numeral(1)),
        If(Lam("x", Var("x")), Numeral(1), Numeral(2)),
        Prim("add", (Numeral(1), Lam("x", Var("x")))),
        Score(Numeral(-1)),
        Score(Lam("x", Var("x"))),
        Prim("add", (Numeral(1), Score(Prim("sub", (Sample(), Numeral(2)))))),
        App(RecMarker(), Lam("x", Var("x"))),
        App(Lam("x", Var("x")), App(RecMarker(), Numeral(3))),
    ],
    ids=repr,
)
@pytest.mark.parametrize("strategy", [Strategy.CBN, Strategy.CBV])
def test_values_and_stuck_terms_match_the_reference_stepper(term, strategy):
    assert _step_along(SymbolicStepper(strategy), term) == _step_along(
        ReferenceStepper(strategy), term
    )


# ---------------------------------------------------------------------------
# The budget boundary.
# ---------------------------------------------------------------------------


def _identity_in_context():
    """``1 + (lambda x. x) 2``: a value appears in focus under one frame."""
    return Prim("add", (Numeral(1), App(Lam("x", Var("x")), Numeral(2))))


def _branch_in_context():
    """``5 + if(sample - 1/2, 1, 2)``: the fork happens under a frame."""
    guard = Prim("sub", (Sample(), Numeral(Fraction(1, 2))))
    return Prim("add", (Numeral(5), If(guard, Numeral(1), Numeral(2))))


def test_value_reached_at_exactly_the_budget_stays_unfinished():
    explorer = SymbolicExplorer()
    # Step 1 reduces the beta-redex (leaving the value 2 in focus, one frame
    # deep), step 2 folds the sum; the budget is checked before the value.
    at_budget = explorer.explore(_identity_in_context(), max_steps_per_path=2)
    assert at_budget.terminated == ()
    assert at_budget.unfinished == 1
    one_more = explorer.explore(_identity_in_context(), max_steps_per_path=3)
    assert one_more.unfinished == 0
    (path,) = one_more.terminated
    assert path.steps == 2
    assert path.result == SymNumeral(ConstVal(Fraction(3)))
    for budget in (1, 2, 3):
        assert _explore(SymbolicExplorer, _identity_in_context(), Strategy.CBN, (budget,)) == (
            _explore(ReferenceExplorer, _identity_in_context(), Strategy.CBN, (budget,))
        )


def test_branch_on_the_final_step_forks_into_unfinished_children():
    # Steps: sample, fold the guard, fork.  With budget 3 the fork is the
    # final step; both children sit at the budget with a value in focus.
    result = SymbolicExplorer().explore(_branch_in_context(), max_steps_per_path=3)
    assert result.terminated == ()
    assert result.unfinished == 2
    deeper = SymbolicExplorer().explore(_branch_in_context(), max_steps_per_path=5)
    assert [path.branches for path in deeper.terminated] == [(True,), (False,)]
    assert [path.steps for path in deeper.terminated] == [4, 4]
    for budget in (2, 3, 4, 5):
        assert _explore(SymbolicExplorer, _branch_in_context(), Strategy.CBN, (budget,)) == (
            _explore(ReferenceExplorer, _branch_in_context(), Strategy.CBN, (budget,))
        )


@pytest.mark.parametrize("suspend_at", [1, 3, 61, 62, 100, 187])
def test_suspending_mid_context_and_resuming_matches_a_fresh_run(suspend_at):
    program = sigmoid_tri_branching(Fraction(3, 5), padding=60)
    deeper = 260
    session = SymbolicExplorer().session(program.applied)
    session.extend(suspend_at)
    # Resume both in process and through the frontier codec.
    stored = json.loads(json.dumps(encode_session(session)))
    restored = decode_session(stored, SymbolicExplorer(), credit_stats=False)
    fresh = SymbolicExplorer().explore(program.applied, max_steps_per_path=deeper)
    assert session.extend(deeper) == fresh
    assert restored.extend(deeper) == fresh
    assert json.dumps(encode_session(session)) == json.dumps(encode_session(restored))
    assert _explore(
        SymbolicExplorer, program.applied, Strategy.CBN, (suspend_at, deeper)
    ) == _explore(ReferenceExplorer, program.applied, Strategy.CBN, (suspend_at, deeper))


# ---------------------------------------------------------------------------
# The free-variable memo.
# ---------------------------------------------------------------------------


def _uncached_free_variables(term):
    """The plain stack walk ``free_variables`` did before it was memoised."""
    collected = set()
    stack = [(term, frozenset())]
    while stack:
        term, bound = stack.pop()
        if isinstance(term, Var):
            if term.name not in bound:
                collected.add(term.name)
        elif isinstance(term, (Numeral, Sample)) or is_extension_leaf(term):
            pass
        elif isinstance(term, Lam):
            stack.append((term.body, bound | {term.var}))
        elif isinstance(term, Fix):
            stack.append((term.body, bound | {term.fvar, term.var}))
        elif isinstance(term, App):
            stack.append((term.fn, bound))
            stack.append((term.arg, bound))
        elif isinstance(term, If):
            stack.extend([(term.cond, bound), (term.then, bound), (term.orelse, bound)])
        elif isinstance(term, Prim):
            stack.extend((arg, bound) for arg in term.args)
        elif isinstance(term, Score):
            stack.append((term.arg, bound))
        else:
            raise TypeError(term)
    return frozenset(collected)


def _memo_of(term):
    return term.__dict__.get("_free_variables")


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_memoised_free_variables_match_an_uncached_walk(name):
    program = _PROGRAMS[name]
    fix = program.fix
    open_body = Lam("y", App(fix.body, Var(fix.var)))
    terms = [
        program.applied,
        fix.body,
        substitute(fix.body, {fix.var: Numeral(3), fix.fvar: fix}),
        substitute(fix.body, {fix.var: SymNumeral(ArgVal()), fix.fvar: RecMarker()}),
        # Replacements with free variables force capture-avoiding renaming.
        substitute(open_body, {fix.var: Var("y"), fix.fvar: Var(fix.var)}),
        substitute(fix, {"free": App(Var(fix.var), Var(fix.fvar))}),
    ]
    session = SymbolicExplorer(program.strategy).session(program.applied)
    session.extend(_budgets(name)[0])
    terms.extend(
        node.configuration.term for _, node in session._nodes if node.configuration
    )
    for term in terms:
        for subterm in subterms(term):
            assert free_variables(subterm) == _uncached_free_variables(subterm)
            assert _memo_of(subterm) == _uncached_free_variables(subterm)


def test_the_memo_is_invisible_to_equality_hash_repr_fields_and_pickle():
    program = _PROGRAMS["gr"]
    term = program.applied
    copy = pickle.loads(pickle.dumps(term))
    before = (repr(term), hash(term), pickle.dumps(term))
    for subterm in subterms(term):
        free_variables(subterm)
    assert _memo_of(term.fn.body) is not None
    assert _memo_of(copy.fn.body) is None
    assert term == copy and hash(term) == hash(copy)
    assert (repr(term), hash(term), pickle.dumps(term)) == before
    assert pickle.dumps(term) == pickle.dumps(copy)
    assert _memo_of(pickle.loads(pickle.dumps(term)).fn.body) is None
    assert [field.name for field in dataclasses.fields(term.fn)] == ["fvar", "var", "body"]
    assert dataclasses.asdict(term) == dataclasses.asdict(copy)


def test_the_memo_never_reaches_the_frontier_codec():
    program = _PROGRAMS["sig-branch3(3/5)"]
    session = SymbolicExplorer().session(program.applied)
    session.extend(30)
    cold = json.dumps(encode_session(session))
    for _, node in session._nodes:
        if node.configuration is not None:
            for subterm in subterms(node.configuration.term):
                free_variables(subterm)
    warm = json.dumps(encode_session(session))
    assert warm == cold
    assert "_free_variables" not in warm


def test_the_memo_never_reaches_the_fleet_store(tmp_path):
    from repro.batch.distribute import (
        frontier_entry_parts,
        frontier_key,
        run_distributed_schedule,
    )
    from repro.batch.store_sqlite import open_store

    program = _PROGRAMS["sig-branch3(3/5)"]
    cold = pickle.loads(pickle.dumps(program))  # fresh terms, no memo
    warm = pickle.loads(pickle.dumps(program))
    for subterm in subterms(warm.applied):
        free_variables(subterm)
    stored = {}
    for label, variant in (("cold", cold), ("warm", warm)):
        engine = MeasureEngine()
        store = open_store(tmp_path / label)
        run_distributed_schedule(
            variant.name,
            variant,
            [15, 30],
            store=store,
            engine=engine,
            jobs=2,
            max_paths=100_000,
        )
        encoded, _rows = frontier_entry_parts(
            store.load_frontiers(engine)[frontier_key(variant, 100_000)]
        )
        assert engine.stats.shards_executed > 0
        stored[label] = json.dumps(encoded)
        for path in (tmp_path / label).rglob("*"):
            if path.is_file():
                assert b"_free_variables" not in path.read_bytes(), path
    assert stored["warm"] == stored["cold"]
