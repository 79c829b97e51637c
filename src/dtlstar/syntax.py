"""Formula AST and concrete syntax for the tangled dynamic modal language.

Primitive connectives: propositional variables, negation ``~``, conjunction
``&``, next ``X``, henceforth ``G``, and a polyadic tangle diamond ``<>{...}``
acting on a finite set of formulas.  Everything else is an abbreviation that
is expanded while parsing and never appears in the AST:

    a | b    ==  ~(~a & ~b)
    a -> b   ==  ~(a & ~b)
    a <-> b  ==  (a -> b) & (b -> a)
    <>a      ==  <>{a}          (singleton tangle = ordinary closure diamond)
    []a      ==  ~<>{~a}
    F a      ==  ~G~a           ("eventually")

Tangle members are kept as a duplicate-free, canonically sorted tuple, so
structural equality on ``Tangle`` nodes is set equality of the members.  The
empty tangle ``<>{}`` is admitted and evaluates to the whole space.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Mapping


class ParseError(ValueError):
    """Raised on malformed concrete syntax; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Base class; all nodes are immutable with cached structural keys.
    ``kids`` are a node's immediate subformulas, and ``rebuild(kids)`` makes
    the node of the same connective over new ones."""

    __slots__ = ("_key", "_hash")

    _key: tuple
    _hash: int
    kids: tuple

    def rebuild(self, kids: Iterable[Formula]) -> Formula:
        return type(self)(*kids)

    def sort_key(self) -> tuple:
        return self._key

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Formula) and self._key == other._key

    def __repr__(self) -> str:
        return f"Formula({to_text(self)!r})"

    def __str__(self) -> str:
        return to_text(self)


class Var(Formula):
    __slots__ = ("name",)
    kids = ()

    def __init__(self, name: str):
        self.name = name
        self._key = (0, name)
        self._hash = hash(self._key)

    def rebuild(self, kids: Iterable[Formula]) -> Formula:
        return self


class _Unary(Formula):
    __slots__ = ("sub",)
    _tag: int

    def __init__(self, sub: Formula):
        self.sub = sub
        self._key = (self._tag, sub._key)
        self._hash = hash(self._key)

    @property
    def kids(self) -> tuple[Formula]:
        return (self.sub,)


class Neg(_Unary):
    __slots__ = ()
    _tag = 1


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._key = (2, left._key, right._key)
        self._hash = hash(self._key)

    @property
    def kids(self) -> tuple[Formula, Formula]:
        return (self.left, self.right)


class Next(_Unary):
    __slots__ = ()
    _tag = 3


class Hence(_Unary):
    __slots__ = ()
    _tag = 4


class Tangle(Formula):
    """Polyadic diamond over a finite set of member formulas."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[Formula]):
        seen: dict[tuple, Formula] = {}
        for m in members:
            seen[m._key] = m
        self.members = tuple(seen[k] for k in sorted(seen))
        self._key = (5, tuple(m._key for m in self.members))
        self._hash = hash(self._key)

    @property
    def kids(self) -> tuple[Formula, ...]:
        return self.members

    def rebuild(self, kids: Iterable[Formula]) -> Formula:
        return Tangle(kids)


# Abbreviation builders.  These expand to primitive nodes.

def or_(a: Formula, b: Formula) -> Formula:
    return Neg(And(Neg(a), Neg(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return Neg(And(a, Neg(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def diamond(a: Formula) -> Formula:
    return Tangle((a,))


def box(a: Formula) -> Formula:
    return Neg(Tangle((Neg(a),)))


def eventually(a: Formula) -> Formula:
    return Neg(Hence(Neg(a)))


def negated(a: Formula) -> Formula:
    """Canonical negation: strips one leading negation instead of stacking."""
    return a.sub if isinstance(a, Neg) else Neg(a)


def strip_double_neg(a: Formula) -> Formula:
    """Remove leading ~~ pairs; the normal form used for type membership."""
    while isinstance(a, Neg) and isinstance(a.sub, Neg):
        a = a.sub.sub
    return a


def sorted_formulas(formulas: Iterable[Formula]) -> list[Formula]:
    return sorted(formulas, key=Formula.sort_key)


def conj(formulas: Iterable[Formula]) -> Formula:
    """Left fold of ``&`` over the canonically sorted members; injective on sets."""
    ordered = sorted_formulas(set(formulas))
    if not ordered:
        raise ValueError("conjunction of an empty formula set is undefined")
    acc = ordered[0]
    for f in ordered[1:]:
        acc = And(acc, f)
    return acc


# ---------------------------------------------------------------------------
# Subformulas, substitution, and the henceforth-elimination transform.

def _as_formulas(obj: Formula | Iterable[Formula]) -> tuple[Formula, ...]:
    if isinstance(obj, Formula):
        return (obj,)
    return tuple(obj)


def subformulas(obj: Formula | Iterable[Formula]) -> frozenset[Formula]:
    """All subformulas, each formula counting as its own subformula.

    Members of a tangle set are subformulas of the tangle.
    """
    out: set[Formula] = set()
    stack = list(_as_formulas(obj))
    while stack:
        f = stack.pop()
        if f in out:
            continue
        out.add(f)
        stack.extend(f.kids)
    return frozenset(out)


def postorder(f: Formula) -> list[Formula]:
    """Distinct subformulas of ``f``, each listed after all of its own."""
    out: list[Formula] = []
    done: set[Formula] = set()
    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if g in done:
            continue
        if expanded:
            done.add(g)
            out.append(g)
            continue
        stack.append((g, True))
        stack.extend((k, False) for k in reversed(g.kids))
    return out


def formula_length(obj: Formula | Iterable[Formula]) -> int:
    """Number of distinct subformulas."""
    return len(subformulas(obj))


def sub_pm(obj: Formula | Iterable[Formula]) -> frozenset[Formula]:
    """Subformulas closed under negation, with ~~ collapsed away.

    Members are kept in stripped normal form so that membership tests have
    the intended "identify a formula with its double negation" behaviour.
    """
    out: set[Formula] = set()
    for f in subformulas(obj):
        g = strip_double_neg(f)
        out.add(g)
        out.add(negated(g))
    return frozenset(out)


def variables(obj: Formula | Iterable[Formula]) -> frozenset[str]:
    return frozenset(f.name for f in subformulas(obj) if isinstance(f, Var))


def _replace(f: Formula, swap: Callable[[Formula], Formula | None]) -> Formula:
    """``f`` with each outermost subformula ``g`` for which ``swap(g)`` is a
    formula replaced by that formula."""
    out = swap(f)
    if out is not None:
        return out
    return f.rebuild([_replace(k, swap) for k in f.kids])


def substitute(f: Formula, sigma: Mapping[str, Formula]) -> Formula:
    """Simultaneous replacement of variables by formulas."""
    return _replace(f, lambda g: sigma.get(g.name, g) if isinstance(g, Var) else None)


def fresh_names(used: Iterable[str]) -> Iterator[str]:
    taken = set(used)
    i = 0
    while True:
        name = f"q{i}"
        if name not in taken:
            yield name
        i += 1


def q_transform(f: Formula) -> tuple[Formula, dict[str, Formula]]:
    """Replace each outermost henceforth subterm ``G d`` by a fresh variable.

    Identical bodies share one variable.  Returns the transformed formula and
    the inverse substitution (variable name back to the replaced ``G d``),
    so that substituting back recovers the input exactly.
    """
    found: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Hence):
            found.add(g.sub)
        else:
            stack.extend(g.kids)
    bodies = sorted_formulas(found)
    name_of = dict(zip(bodies, fresh_names(variables(f))))
    inverse = {name_of[d]: Hence(d) for d in bodies}
    return _replace(f, lambda g: Var(name_of[g.sub]) if isinstance(g, Hence) else None), inverse


# ---------------------------------------------------------------------------
# Concrete syntax.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<iff><->)|(?P<imp>->)|(?P<dia><>)|(?P<box>\[\])"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[&|~(){},]))"
)

_KEYWORDS = {"X", "G", "F"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}",
                             len(text) - len(text[pos:].lstrip()))
        pos = m.end()
        start = m.start(m.lastgroup)  # type: ignore[arg-type]
        if m.lastgroup == "ident":
            name = m.group("ident")
            if name in _KEYWORDS:
                tokens.append((name, name, start))
            else:
                tokens.append(("ident", name, start))
        elif m.lastgroup == "punct":
            tokens.append((m.group("punct"), m.group("punct"), start))
        else:
            tokens.append((m.lastgroup, m.group(m.lastgroup), start))  # type: ignore[arg-type]
    tokens.append(("eof", "", len(text)))
    return tokens


# The deepest nesting the parser accepts.  Every operand of a prefix
# operator or of "->", and every bracketed formula, opens one level.  A
# formula at this depth still parses, prints and evaluates within Python's
# default recursion limit; one level more is a ParseError.
MAX_NESTING = 100

# The tallest syntax tree the parser accepts, in connectives on the longest
# branch.  Chains of "&" and "|" make tall trees from shallow text, and the
# printer, the evaluator and the comparison of sort keys recurse up to two
# frames per level.  Under Python's default recursion limit the worst
# shapes (chains of "|" and of prefix operators) fail past about 490 levels
# in ``satisfy`` from the command line and past 478 in ``parse`` from a test
# runner's stack; this bound leaves the caller about fifty frames.  A nest
# of MAX_NESTING prefix operators or "->" is at most 300 tall ("F", "[]" and
# "->" expand to three levels each), so the bound refuses none of them.
MAX_HEIGHT = 450

# The largest syntax tree a "<->" may build, in nodes counted with
# repetition (which tracks the length of the printed text).  Only "<->"
# copies its operands, so only it makes more than a few nodes per token: a
# chain doubles with each operand.  A chain of 14 single letters (81,911
# nodes, about 170 KB of text) is within the bound and one of 15 is not.
MAX_SIZE = 100_000


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        # id(node) -> (height, size, node); holding the node keeps its id
        # unique.  No token adds more than four levels ("<->"), so a short
        # text needs no height count.
        self.measured: dict[int, tuple[int, int, Formula]] = {}
        self.count_height = 4 * len(self.tokens) > MAX_HEIGHT

    def measure(self, f: Formula) -> tuple[int, int, Formula]:
        """(height, size, f) with the size counted with repetition."""
        got = self.measured.get(id(f))
        if got is None:
            kids = [self.measure(g) for g in f.kids]
            got = self.measured[id(f)] = (1 + max((m[0] for m in kids), default=-1),
                                          1 + sum(m[1] for m in kids), f)
        return got

    def refuse(self, what: str) -> ParseError:
        return ParseError(what, self.tokens[self.i][2])

    def within_height(self, f: Formula) -> Formula:
        """``f``, or a ParseError when it is taller than ``MAX_HEIGHT``."""
        if self.count_height and self.measure(f)[0] > MAX_HEIGHT:
            raise self.refuse(f"formula taller than {MAX_HEIGHT} levels")
        return f

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.i += 1
        return tok

    def formula(self) -> Formula:
        a = self.imp()
        while self.peek() == "iff":
            self.next()
            b = self.imp()
            # iff(a, b) holds two copies of each operand and seven nodes more
            if 2 * (self.measure(a)[1] + self.measure(b)[1]) + 7 > MAX_SIZE:
                raise self.refuse(f"formula larger than {MAX_SIZE} nodes")
            a = self.within_height(iff(a, b))
        return a

    def imp(self) -> Formula:
        a = self.or_()
        if self.peek() == "imp":
            self.next()
            return self.within_height(implies(a, self.nested(self.imp)))
        return a

    def or_(self) -> Formula:
        a = self.and_()
        while self.peek() == "|":
            self.next()
            a = self.within_height(or_(a, self.and_()))
        return a

    def and_(self) -> Formula:
        a = self.unary()
        while self.peek() == "&":
            self.next()
            a = self.within_height(And(a, self.unary()))
        return a

    def nested(self, parse: Callable[[], Formula]) -> Formula:
        """``parse()`` one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise self.refuse(f"formula nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def unary(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "~":
            return Neg(self.nested(self.unary))
        if kind == "X":
            return Next(self.nested(self.unary))
        if kind == "G":
            return Hence(self.nested(self.unary))
        if kind == "F":
            return eventually(self.nested(self.unary))
        if kind == "box":
            return box(self.nested(self.unary))
        if kind == "dia":
            if self.peek() == "{":
                self.next()
                members: list[Formula] = []
                if self.peek() == "}":
                    self.next()
                    return Tangle(())
                members.append(self.nested(self.formula))
                while self.peek() == ",":
                    self.next()
                    members.append(self.nested(self.formula))
                self.expect("}")
                return Tangle(members)
            return Tangle((self.nested(self.unary),))
        if kind == "(":
            a = self.nested(self.formula)
            self.expect(")")
            return a
        if kind == "ident":
            return Var(value)
        raise ParseError(f"unexpected token {value or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    p = _Parser(text)
    f = p.within_height(p.formula())
    p.expect("eof")
    return f


def _wrap_unary(f: Formula) -> str:
    text = to_text(f)
    return f"({text})" if isinstance(f, And) else text


def to_text(f: Formula) -> str:
    """Canonical concrete syntax; parsing the output reproduces the AST."""
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Neg):
        return "~" + _wrap_unary(f.sub)
    if isinstance(f, Next):
        return "X " + _wrap_unary(f.sub)
    if isinstance(f, Hence):
        return "G " + _wrap_unary(f.sub)
    if isinstance(f, And):
        left = to_text(f.left) if isinstance(f.left, And) else _wrap_unary(f.left)
        right = _wrap_unary(f.right)
        return f"{left} & {right}"
    if isinstance(f, Tangle):
        if len(f.members) == 1:
            return "<>" + _wrap_unary(f.members[0])
        return "<>{" + ", ".join(to_text(m) for m in f.members) + "}"
    raise TypeError(f"not a formula: {f!r}")
