"""Golden store keys: the exact strings measure and sweep rows persist under.

Persistent stores outlive the code that wrote them, so a key change -- even
a harmless-looking reordering of option fields -- silently cold-starts every
existing ``--cache-dir``.  These tests pin the literal keys a default engine
(and a sweep-budget engine) renders for an affine set and a non-affine
block, both through the key methods and through what a measuring engine
actually exports to the store.
"""

from fractions import Fraction

from repro.config import ReproConfig
from repro.geometry.engine import MeasureEngine
from repro.symbolic.constraints import Constraint, ConstraintSet, Relation
from repro.symbolic.values import const, sample_var, simplify_prim

_AFFINE_KEY = (
    "(sub(a0, ConstVal(1/3)) > 0);(sub(add(a0, a1), ConstVal(3/4)) <= 0)"
    "|d2|o8.14.0.1.0.None|aNone"
)
_SWEEP_KEY = "(sub(sig(mul(a0, a1)), ConstVal(3/5)) <= 0)|d2|s14.0.None"


def _affine_set():
    return ConstraintSet(
        [
            Constraint(
                simplify_prim(
                    "sub",
                    [
                        simplify_prim("add", [sample_var(0), sample_var(1)]),
                        const(Fraction(3, 4)),
                    ],
                ),
                Relation.LE,
            ),
            Constraint(
                simplify_prim("sub", [sample_var(0), const(Fraction(1, 3))]),
                Relation.GT,
            ),
        ]
    )


def _nonaffine_block():
    product = simplify_prim("mul", [sample_var(0), sample_var(1)])
    return ConstraintSet(
        [
            Constraint(
                simplify_prim(
                    "sub", [simplify_prim("sig", [product]), const(Fraction(3, 5))]
                ),
                Relation.LE,
            )
        ]
    )


def test_default_engine_keys_are_pinned():
    engine = MeasureEngine()
    affine = engine.canonicalize(_affine_set())
    block = engine.canonicalize(_nonaffine_block())
    assert engine.persistent_key(affine, 2) == _AFFINE_KEY
    assert engine.persistent_sweep_key(block, 2) == _SWEEP_KEY
    assert engine.persistent_sweep_key(block, 2, sweep_depth=7) == (
        "(sub(sig(mul(a0, a1)), ConstVal(3/5)) <= 0)|d2|s7.0.None"
    )


def test_default_config_engine_exports_under_the_pinned_keys():
    engine = ReproConfig().measure_engine()
    engine.measure(_affine_set(), 2)
    engine.measure(_nonaffine_block(), 2)
    assert sorted(engine.export_cache_entries()) == [_AFFINE_KEY]
    assert sorted(engine.export_sweep_entries()) == [_SWEEP_KEY]


def test_sweep_budget_keys_are_pinned():
    engine = ReproConfig(
        sweep_depth=18, sweep_gap=Fraction(1, 1024), sweep_max_boxes=5000
    ).measure_engine()
    affine = engine.canonicalize(_affine_set())
    block = engine.canonicalize(_nonaffine_block())
    assert engine.persistent_key(affine, 2) == (
        "(sub(a0, ConstVal(1/3)) > 0);(sub(add(a0, a1), ConstVal(3/4)) <= 0)"
        "|d2|o8.18.0.1.1/1024.5000|aNone"
    )
    assert engine.persistent_sweep_key(block, 2) == (
        "(sub(sig(mul(a0, a1)), ConstVal(3/5)) <= 0)|d2|s18.1/1024.5000"
    )
