"""Golden fixture for the certified sweep: pinned results, not just agreement.

The kernel-vs-scalar equivalence tests only check that the two traversal
loops agree with each other, so a bug shared by both would slip through.
This fixture pins the *absolute* output instead: a fixed, seeded family of
non-affine constraint sets, each swept at depths 6, 12 and 18 under four
budgets -- a pure depth budget, a ``target_gap``, a ``max_boxes`` cap, and a
resume from a shallower frontier -- with every :class:`SweepResult` field
and the exact ``encode_frontier`` bytes (as a SHA-256) recorded in
``tests/sweep_golden.json``.  Both the scalar loop and the chunked kernel
loop must reproduce every recorded case.

Regenerate the fixture only when a change is *meant* to alter sweep
results::

    PYTHONPATH=src python tests/test_sweep_golden.py --record
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.geometry.kernel import kernel_available
from repro.geometry.sweep import encode_frontier, sweep_measure
from repro.symbolic.constraints import Constraint, ConstraintSet, Relation
from repro.symbolic.values import const, sample_var, simplify_prim

_FIXTURE = Path(__file__).with_name("sweep_golden.json")
_SEED = 14
_SET_COUNT = 30
_DEPTHS = (6, 12, 18)
_PROBE_BOX_CAP = 1500
_BUDGETS = ("depth", "target_gap", "max_boxes", "resume")
_RELATIONS = (Relation.LE, Relation.GT, Relation.GE, Relation.LT)
_UNARY = ("neg", "abs", "exp", "sig", "log")
_BINARY = ("add", "sub", "mul", "min", "max")


def _expression(rng: random.Random, dimension: int, height: int):
    """A random expression over ``dimension`` sample variables.

    ``log`` is applied to ``abs(e) + 1/8`` so its argument stays positive
    and no box raises a domain error.
    """
    if height == 0 or rng.random() < 0.25:
        if rng.random() < 0.7:
            return sample_var(rng.randrange(dimension))
        return const(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4, 5))))
    if rng.random() < 0.4:
        op = rng.choice(_UNARY)
        child = _expression(rng, dimension, height - 1)
        if op == "log":
            child = simplify_prim(
                "add", [simplify_prim("abs", [child]), const(Fraction(1, 8))]
            )
        return simplify_prim(op, [child])
    op = rng.choice(_BINARY)
    return simplify_prim(
        op,
        [
            _expression(rng, dimension, height - 1),
            _expression(rng, dimension, height - 1),
        ],
    )


def golden_sets():
    """The seeded constraint sets: non-affine, refined but not too fat."""
    rng = random.Random(_SEED)
    sets = []
    while len(sets) < _SET_COUNT:
        dimension = rng.choice((1, 1, 2, 2, 3))
        constraints = ConstraintSet(
            Constraint(
                simplify_prim(
                    "sub",
                    [
                        _expression(rng, dimension, 2),
                        const(Fraction(rng.randint(-4, 4), 4)),
                    ],
                ),
                rng.choice(_RELATIONS),
            )
            for _ in range(rng.randint(1, 3))
        )
        if constraints.dimension() == 0 or constraints.all_linear():
            continue
        try:
            probe = sweep_measure(constraints, constraints.dimension(), max_depth=12)
        except (ValueError, OverflowError, ZeroDivisionError):
            continue
        if probe.boxes_examined <= 3 or probe.boxes_examined > _PROBE_BOX_CAP:
            # Decided at the root (no refinement to pin), or a boundary so
            # fat that depth 18 would dominate the suite's run time.
            continue
        sets.append(constraints)
    return sets


def _frontier_digest(frontier):
    if frontier is None:
        return None
    encoded = json.dumps(encode_frontier(frontier), separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def _record_of(result):
    return {
        "lower": str(result.lower),
        "undecided": str(result.undecided),
        "boxes_examined": result.boxes_examined,
        "evaluations_saved": result.evaluations_saved,
        "early_exit": result.early_exit,
        "heap_peak": result.heap_peak,
        "frontier_sha256": _frontier_digest(result.frontier),
    }


def run_case(constraints, depth, budget, use_kernel):
    """Sweep one fixture case on the scalar or the kernel loop."""
    dimension = constraints.dimension()
    # Warmup 0 and an odd chunk size make the kernel loop classify every
    # box in chunks that straddle depth levels and budget cut points.
    path = (
        {"use_kernel": True, "kernel_warmup": 0, "kernel_chunk": 7} if use_kernel else {}
    )
    if budget == "depth":
        result = sweep_measure(
            constraints, dimension, max_depth=depth, collect_frontier=True, **path
        )
    elif budget == "target_gap":
        result = sweep_measure(
            constraints,
            dimension,
            max_depth=depth,
            target_gap=Fraction(1, 2 ** (depth // 3)),
            **path,
        )
    elif budget == "max_boxes":
        result = sweep_measure(
            constraints, dimension, max_depth=depth, max_boxes=10 * depth, **path
        )
    else:
        shallow = sweep_measure(
            constraints,
            dimension,
            max_depth=depth // 2,
            collect_frontier=True,
            **path,
        )
        result = sweep_measure(
            constraints,
            dimension,
            max_depth=depth,
            resume=shallow.frontier,
            collect_frontier=True,
            **path,
        )
    return _record_of(result)


def _case_key(index, depth, budget):
    return f"{index}/{depth}/{budget}"


def record():
    sets = golden_sets()
    cases = {}
    for index, constraints in enumerate(sets):
        for depth in _DEPTHS:
            for budget in _BUDGETS:
                cases[_case_key(index, depth, budget)] = run_case(
                    constraints, depth, budget, use_kernel=False
                )
    # One line per set and per case keeps the fixture's diffs readable.
    lines = ",\n  ".join(
        f"{json.dumps(key)}: {json.dumps(case, sort_keys=True)}"
        for key, case in cases.items()
    )
    sets_text = ",\n  ".join(json.dumps(repr(constraints)) for constraints in sets)
    _FIXTURE.write_text(
        f'{{"seed": {_SEED},\n "sets": [\n  {sets_text}\n ],\n'
        f' "cases": {{\n  {lines}\n }}\n}}\n'
    )


def _fixture():
    return json.loads(_FIXTURE.read_text())


_SETS = golden_sets()


def test_generator_reproduces_the_recorded_sets():
    assert [repr(constraints) for constraints in _SETS] == _fixture()["sets"]


_PATHS = [
    pytest.param(False, id="scalar"),
    pytest.param(
        True,
        id="kernel",
        marks=pytest.mark.skipif(not kernel_available(), reason="numpy is unavailable"),
    ),
]


@pytest.mark.parametrize("use_kernel", _PATHS)
@pytest.mark.parametrize("budget", _BUDGETS)
@pytest.mark.parametrize("depth", _DEPTHS)
def test_sweep_matches_the_golden_fixture(depth, budget, use_kernel):
    cases = _fixture()["cases"]
    for index, constraints in enumerate(_SETS):
        key = _case_key(index, depth, budget)
        assert run_case(constraints, depth, budget, use_kernel) == cases[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_sweep_golden.py --record")
    record()
