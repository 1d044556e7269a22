"""Abstract syntax of SPCF terms (Sec. 2.2 of the paper).

Terms are given by the grammar

    V ::= x | r | lambda x. M | mu phi x. M
    M ::= V | M N | if(M, N, P) | f(M_1, ..., M_|f|) | sample | score(M)

where ``r`` ranges over real numbers (we use :class:`fractions.Fraction`
whenever possible so that measures and lower bounds stay exact) and ``f``
over primitive functions from a :class:`~repro.spcf.primitives.PrimitiveRegistry`.

Terms are immutable (frozen dataclasses); all structural operations --
free variables, capture-avoiding substitution, alpha-equivalence -- are
provided as module-level functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple, Union

Number = Union[Fraction, float, int]


def as_number(value: Number) -> Union[Fraction, float]:
    """Normalise a Python number to a ``Fraction`` (exact) or ``float``.

    Integers and fractions stay exact; floats stay floats.  This is the
    single place deciding exact-vs-approximate representation of numerals.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not SPCF numerals")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    raise TypeError(f"not a number: {value!r}")


class Term:
    """Base class of all SPCF terms.

    Terms are immutable, so :func:`free_variables` memoises its answer on
    each node it visits, in the instance attribute ``_free_variables``.  The
    memo is not a dataclass field: ``==``, ``hash``, ``repr`` and
    ``dataclasses.fields`` never see it, and pickling drops it.
    """

    __slots__ = ()

    _free_variables: Optional[FrozenSet[str]] = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_free_variables", None)
        return state or None

    def __call__(self, *args: "Term") -> "Term":
        """Left-associated application: ``f(a, b)`` builds ``App(App(f, a), b)``."""
        result: Term = self
        for arg in args:
            result = App(result, arg)
        return result


@dataclass(frozen=True)
class Var(Term):
    """A term variable."""

    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True)
class Numeral(Term):
    """A real-valued constant ``r``."""

    value: Union[Fraction, float]

    def __init__(self, value: Number) -> None:
        object.__setattr__(self, "value", as_number(value))

    def __repr__(self) -> str:
        return f"Numeral({self.value!r})"


@dataclass(frozen=True)
class Lam(Term):
    """Lambda abstraction ``lambda x. body``."""

    var: str
    body: Term


@dataclass(frozen=True)
class Fix(Term):
    """Fixpoint constructor ``mu phi x. body``.

    ``fvar`` is bound to the recursively defined function itself, ``var`` to
    its argument; both are bound in ``body``.
    """

    fvar: str
    var: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    """Application ``fn arg``."""

    fn: Term
    arg: Term


@dataclass(frozen=True)
class If(Term):
    """Conditional ``if(cond, then, orelse)``: takes ``then`` iff ``cond <= 0``."""

    cond: Term
    then: Term
    orelse: Term


@dataclass(frozen=True)
class Prim(Term):
    """Application of a primitive function ``op`` to real-typed arguments."""

    op: str
    args: Tuple[Term, ...]

    def __init__(self, op: str, args) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class Sample(Term):
    """A draw from the uniform distribution on [0, 1]."""


@dataclass(frozen=True)
class Score(Term):
    """Stochastic conditioning ``score(arg)``; gets stuck when ``arg < 0``."""

    arg: Term


def is_extension_leaf(term: Term) -> bool:
    """True for leaf-like term extensions defined outside this module.

    Other layers of the library extend the term language with new constants
    of type ``R`` (interval numerals in Sec. 3, the unknown numeral ``*`` of
    the counting semantics in Sec. 5, symbolic sample variables in App. B.5).
    These extensions are all *leaves*: dataclasses none of whose fields are
    terms.  The generic traversals below (free variables, substitution,
    alpha-equivalence, ...) treat them as closed constants.
    """
    if isinstance(term, (Var, Numeral, Lam, Fix, App, If, Prim, Sample, Score)):
        return False
    if not isinstance(term, Term):
        return False
    fields = getattr(term, "__dataclass_fields__", {})
    return not any(isinstance(getattr(term, name), Term) for name in fields)


def is_value(term: Term) -> bool:
    """A value is a variable, a numeral, a lambda or a fixpoint abstraction."""
    return isinstance(term, (Var, Numeral, Lam, Fix))


def subterms(term: Term) -> Iterator[Term]:
    """Yield every subterm of ``term`` (including ``term`` itself), pre-order."""
    yield term
    if isinstance(term, (Var, Numeral, Sample)) or is_extension_leaf(term):
        return
    if isinstance(term, Lam):
        yield from subterms(term.body)
    elif isinstance(term, Fix):
        yield from subterms(term.body)
    elif isinstance(term, App):
        yield from subterms(term.fn)
        yield from subterms(term.arg)
    elif isinstance(term, If):
        yield from subterms(term.cond)
        yield from subterms(term.then)
        yield from subterms(term.orelse)
    elif isinstance(term, Prim):
        for arg in term.args:
            yield from subterms(arg)
    elif isinstance(term, Score):
        yield from subterms(term.arg)
    else:
        raise TypeError(f"unknown term: {term!r}")


def term_size(term: Term) -> int:
    """Number of AST nodes in ``term``."""
    return sum(1 for _ in subterms(term))


_NO_FREE_VARIABLES: FrozenSet[str] = frozenset()


def _term_children(term: Term) -> Tuple[Term, ...]:
    if isinstance(term, (Var, Numeral, Sample)) or is_extension_leaf(term):
        return ()
    if isinstance(term, (Lam, Fix)):
        return (term.body,)
    if isinstance(term, App):
        return (term.fn, term.arg)
    if isinstance(term, If):
        return (term.cond, term.then, term.orelse)
    if isinstance(term, Prim):
        return term.args
    if isinstance(term, Score):
        return (term.arg,)
    raise TypeError(f"unknown term: {term!r}")


def _free_of_node(term: Term, children: Tuple[Term, ...]) -> FrozenSet[str]:
    """Free variables of ``term`` from the memoised sets of its ``children``."""
    if isinstance(term, Var):
        return frozenset((term.name,))
    collected = _NO_FREE_VARIABLES
    for child in children:
        inner = child._free_variables
        if inner and not inner <= collected:
            collected = collected | inner if collected else inner
    if isinstance(term, Lam) and term.var in collected:
        return collected - {term.var}
    if isinstance(term, Fix) and (term.fvar in collected or term.var in collected):
        return collected - {term.fvar, term.var}
    return collected


def free_variables(term: Term) -> FrozenSet[str]:
    """The set of free variables of ``term``.

    Memoised per node (see :class:`Term`): a node's set is computed once,
    from its children's, so substitution -- which asks for the free
    variables of every replacement, and of a binder's body whenever it
    must rename the binder -- never re-walks a shared subterm.  The first
    walk runs post-order on an explicit stack: deep recursion bodies (e.g.
    the ``nested`` program at large rank) are far deeper than Python's
    recursion limit allows a recursive walk to be.
    """
    memo = term._free_variables
    if memo is not None:
        return memo
    stack = [term]
    while stack:
        node = stack[-1]
        if node._free_variables is not None:
            stack.pop()
            continue
        children = _term_children(node)
        pending = [child for child in children if child._free_variables is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        object.__setattr__(node, "_free_variables", _free_of_node(node, children))
    return term._free_variables


def is_closed(term: Term) -> bool:
    """True iff ``term`` has no free variables."""
    return not free_variables(term)


_FRESH_COUNTER = itertools.count()


def fresh_variable(base: str, avoid: FrozenSet[str]) -> str:
    """Return a variable name derived from ``base`` that is not in ``avoid``."""
    if base not in avoid:
        return base
    stem = base.split("#", 1)[0]
    while True:
        candidate = f"{stem}#{next(_FRESH_COUNTER)}"
        if candidate not in avoid:
            return candidate


def substitute(term: Term, replacements: Mapping[str, Term]) -> Term:
    """Capture-avoiding simultaneous substitution ``term[replacements]``.

    Bound variables are renamed when they would capture a free variable of a
    substituted term.  Substituting the empty mapping returns ``term``.
    """
    if not replacements:
        return term
    free_of_replacements: FrozenSet[str] = frozenset()
    for replacement in replacements.values():
        free_of_replacements = free_of_replacements | free_variables(replacement)
    return _substitute(term, dict(replacements), free_of_replacements)


def _enter_binders(
    body: Term,
    binders: Tuple[str, ...],
    replacements: Dict[str, Term],
    avoid: FrozenSet[str],
) -> Optional[Tuple[Tuple[str, ...], Dict[str, Term], FrozenSet[str]]]:
    """Prepare the substitution that continues below a binder scope.

    Returns ``None`` when every replacement is shadowed (the scope is left
    untouched); otherwise the renamed binders, the combined replacement
    mapping, and the extended avoid set.  Binder renaming and the narrowed
    substitution are *one* simultaneous mapping: simultaneous substitution
    never re-traverses an inserted term, renamed binders insert only the
    fresh variable (which no replacement key matches), and occurrences of the
    old binder name free in replacement values stay free -- exactly the
    composition the capture-avoiding two-pass scheme computes.
    """
    narrowed = {name: value for name, value in replacements.items() if name not in binders}
    if not narrowed:
        return None
    if not any(binder in avoid for binder in binders):
        return binders, narrowed, avoid
    new_binders = []
    renaming: Dict[str, Term] = {}
    taken = avoid | free_variables(body) | set(binders)
    for binder in binders:
        if binder in avoid:
            new_name = fresh_variable(binder, taken)
            taken = taken | {new_name}
            renaming[binder] = Var(new_name)
            new_binders.append(new_name)
        else:
            new_binders.append(binder)
    combined = dict(narrowed)
    combined.update(renaming)
    combined_avoid = avoid | frozenset(
        variable.name for variable in renaming.values()
    )
    return tuple(new_binders), combined, combined_avoid


def _substitute(
    term: Term, replacements: Dict[str, Term], avoid: FrozenSet[str]
) -> Term:
    """Iterative capture-avoiding substitution.

    A visit/assemble work stack replaces structural recursion so that very
    deep terms (the ``nested`` program at large rank produces bodies tens of
    thousands of nodes deep) cannot overflow the interpreter stack.  Visit
    items rebuild leaves directly; inner nodes push an assemble closure that
    pops its finished children (children are visited in LIFO order, so the
    *last* child pushed finishes first).
    """
    results: List[Term] = []
    work: List[Tuple] = [("visit", term, replacements, avoid)]
    while work:
        item = work.pop()
        if item[0] == "assemble":
            results.append(item[1](results))
            continue
        _, term, replacements, avoid = item
        if isinstance(term, Var):
            results.append(replacements.get(term.name, term))
        elif isinstance(term, (Numeral, Sample)) or is_extension_leaf(term):
            results.append(term)
        elif isinstance(term, Lam):
            entered = _enter_binders(term.body, (term.var,), replacements, avoid)
            if entered is None:
                results.append(term)
                continue
            (var,), combined, deeper_avoid = entered
            work.append(("assemble", lambda done, var=var: Lam(var, done.pop())))
            work.append(("visit", term.body, combined, deeper_avoid))
        elif isinstance(term, Fix):
            entered = _enter_binders(
                term.body, (term.fvar, term.var), replacements, avoid
            )
            if entered is None:
                results.append(term)
                continue
            (fvar, var), combined, deeper_avoid = entered
            work.append(
                ("assemble", lambda done, fvar=fvar, var=var: Fix(fvar, var, done.pop()))
            )
            work.append(("visit", term.body, combined, deeper_avoid))
        elif isinstance(term, App):
            def assemble_app(done):
                fn = done.pop()
                arg = done.pop()
                return App(fn, arg)

            work.append(("assemble", assemble_app))
            work.append(("visit", term.fn, replacements, avoid))
            work.append(("visit", term.arg, replacements, avoid))
        elif isinstance(term, If):
            def assemble_if(done):
                cond = done.pop()
                then = done.pop()
                orelse = done.pop()
                return If(cond, then, orelse)

            work.append(("assemble", assemble_if))
            work.append(("visit", term.cond, replacements, avoid))
            work.append(("visit", term.then, replacements, avoid))
            work.append(("visit", term.orelse, replacements, avoid))
        elif isinstance(term, Prim):
            def assemble_prim(done, op=term.op, count=len(term.args)):
                args = [done.pop() for _ in range(count)]  # newest-first
                args.reverse()
                return Prim(op, tuple(args))

            work.append(("assemble", assemble_prim))
            for arg in reversed(term.args):
                work.append(("visit", arg, replacements, avoid))
        elif isinstance(term, Score):
            work.append(("assemble", lambda done: Score(done.pop())))
            work.append(("visit", term.arg, replacements, avoid))
        else:
            raise TypeError(f"unknown term: {term!r}")
    (substituted,) = results
    return substituted


def alpha_equivalent(left: Term, right: Term) -> bool:
    """Structural equality of terms up to renaming of bound variables."""
    return _alpha(left, right, {}, {}, [0])


def _alpha(
    left: Term,
    right: Term,
    left_env: Dict[str, int],
    right_env: Dict[str, int],
    counter,
) -> bool:
    if type(left) is not type(right):
        return False
    if isinstance(left, Var):
        assert isinstance(right, Var)
        left_level = left_env.get(left.name)
        right_level = right_env.get(right.name)
        if left_level is None and right_level is None:
            return left.name == right.name
        return left_level == right_level
    if isinstance(left, Numeral):
        assert isinstance(right, Numeral)
        return left.value == right.value
    if isinstance(left, Sample):
        return True
    if is_extension_leaf(left):
        return left == right
    if isinstance(left, Lam):
        assert isinstance(right, Lam)
        level = counter[0]
        counter[0] += 1
        return _alpha(
            left.body,
            right.body,
            {**left_env, left.var: level},
            {**right_env, right.var: level},
            counter,
        )
    if isinstance(left, Fix):
        assert isinstance(right, Fix)
        level_f = counter[0]
        level_x = counter[0] + 1
        counter[0] += 2
        return _alpha(
            left.body,
            right.body,
            {**left_env, left.fvar: level_f, left.var: level_x},
            {**right_env, right.fvar: level_f, right.var: level_x},
            counter,
        )
    if isinstance(left, App):
        assert isinstance(right, App)
        return _alpha(left.fn, right.fn, left_env, right_env, counter) and _alpha(
            left.arg, right.arg, left_env, right_env, counter
        )
    if isinstance(left, If):
        assert isinstance(right, If)
        return (
            _alpha(left.cond, right.cond, left_env, right_env, counter)
            and _alpha(left.then, right.then, left_env, right_env, counter)
            and _alpha(left.orelse, right.orelse, left_env, right_env, counter)
        )
    if isinstance(left, Prim):
        assert isinstance(right, Prim)
        if left.op != right.op or len(left.args) != len(right.args):
            return False
        return all(
            _alpha(a, b, left_env, right_env, counter)
            for a, b in zip(left.args, right.args)
        )
    if isinstance(left, Score):
        assert isinstance(right, Score)
        return _alpha(left.arg, right.arg, left_env, right_env, counter)
    raise TypeError(f"unknown term: {left!r}")
