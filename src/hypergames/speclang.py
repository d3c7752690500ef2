"""Syntactically co-safe temporal-logic formulas and their translation to DFAs.

The fragment is restricted to negation normal form over atoms::

    phi ::= true | false | <atom> | ! <atom>
          | phi & phi | phi "|" phi
          | X phi | phi U phi | F phi | ( phi )

Precedence: unary operators bind tightest, then ``U`` (right-associative),
then ``&``, then ``|``.

Compilation uses formula progression (derivatives): each DFA state is a
syntactically normalized residual formula, the residual ``true`` is the
(absorbing) accepting state and the residual ``false`` is the rejecting sink.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

__all__ = [
    "Formula",
    "Top",
    "Bottom",
    "Atom",
    "NotAtom",
    "And",
    "Or",
    "Next",
    "Until",
    "Eventually",
    "TOP",
    "BOTTOM",
    "Dfa",
    "FormulaError",
    "FormulaSyntaxError",
    "UndeclaredAtomError",
    "DfaSizeError",
    "AlphabetError",
    "parse_formula",
    "normalize",
    "progress",
    "compile_to_dfa",
    "accepts",
    "all_symbols",
]


class FormulaError(ValueError):
    """Base class for formula-related errors."""


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, position: int, expected: Sequence[str] = ()):
        self.position = position
        self.expected = tuple(expected)
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"at position {position}: {message}{suffix}")


class UndeclaredAtomError(FormulaError):
    def __init__(self, name: str, position: int | None = None):
        self.name = name
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"atom '{name}'{where} is not declared in the proposition set")


class DfaSizeError(FormulaError):
    """Raised when the residual state space exceeds the configured cap."""


class AlphabetError(FormulaError):
    """Raised when a word symbol or DFA alphabet is not over the expected AP."""


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    def text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Top(Formula):
    def text(self) -> str:
        return "true"


@dataclass(frozen=True)
class Bottom(Formula):
    def text(self) -> str:
        return "false"


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def text(self) -> str:
        return self.name


@dataclass(frozen=True)
class NotAtom(Formula):
    name: str

    def text(self) -> str:
        return f"!{self.name}"


@dataclass(frozen=True)
class And(Formula):
    operands: tuple[Formula, ...]

    def text(self) -> str:
        return "(" + " & ".join(f.text() for f in self.operands) + ")"


@dataclass(frozen=True)
class Or(Formula):
    operands: tuple[Formula, ...]

    def text(self) -> str:
        return "(" + " | ".join(f.text() for f in self.operands) + ")"


@dataclass(frozen=True)
class Next(Formula):
    sub: Formula

    def text(self) -> str:
        return f"X {self.sub.text()}"


@dataclass(frozen=True)
class Until(Formula):
    lhs: Formula
    rhs: Formula

    def text(self) -> str:
        return f"({self.lhs.text()} U {self.rhs.text()})"


@dataclass(frozen=True)
class Eventually(Formula):
    sub: Formula

    def text(self) -> str:
        return f"F {self.sub.text()}"


TOP = Top()
BOTTOM = Bottom()


def atoms_of(f: Formula) -> frozenset[str]:
    """All proposition names occurring in ``f``."""
    if isinstance(f, (Atom, NotAtom)):
        return frozenset({f.name})
    if isinstance(f, (And, Or)):
        out: frozenset[str] = frozenset()
        for g in f.operands:
            out |= atoms_of(g)
        return out
    if isinstance(f, (Next, Eventually)):
        return atoms_of(f.sub)
    if isinstance(f, Until):
        return atoms_of(f.lhs) | atoms_of(f.rhs)
    return frozenset()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_RESERVED = {"true", "false", "X", "U", "F"}

# Deepest nesting of parentheses, ``X``, ``F`` and right operands of ``U`` the
# parser accepts.  The parser and the compiler recurse once or more per level,
# so the cap keeps both well inside Python's default recursion limit.
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, position) triples; kinds: name, op, lparen, rparen."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "&|!":
            tokens.append(("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", c, i))
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str, ap: Iterable[str]):
        self.tokens = _tokenize(text)
        self.ap = frozenset(ap)
        self.pos = 0
        self.length = len(text)
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, expected: Sequence[str] = ()) -> FormulaSyntaxError:
        tok = self.peek()
        position = tok[2] if tok is not None else self.length
        return FormulaSyntaxError(message, position, expected)

    def nested(self, parse_operand) -> Formula:
        """``parse_operand()`` one nesting level deeper, within :data:`MAX_NESTING`."""
        if self.depth == MAX_NESTING:
            raise self.error(f"formula nests deeper than {MAX_NESTING} levels")
        self.depth += 1
        operand = parse_operand()
        self.depth -= 1
        return operand

    def parse(self) -> Formula:
        f = self.parse_or()
        tok = self.peek()
        if tok is not None:
            raise self.error(f"trailing input {tok[1]!r}")
        return f

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while True:
            tok = self.peek()
            if tok is not None and tok[:2] == ("op", "|"):
                self.advance()
                parts.append(self.parse_and())
            else:
                break
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Formula:
        parts = [self.parse_until()]
        while True:
            tok = self.peek()
            if tok is not None and tok[:2] == ("op", "&"):
                self.advance()
                parts.append(self.parse_until())
            else:
                break
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_until(self) -> Formula:
        lhs = self.parse_unary()
        tok = self.peek()
        if tok is not None and tok[0] == "name" and tok[1] == "U":
            self.advance()
            rhs = self.nested(self.parse_until)  # right-associative
            return Until(lhs, rhs)
        return lhs

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input", ["formula"])
        kind, value, position = tok
        if kind == "lparen":
            self.advance()
            inner = self.nested(self.parse_or)
            closing = self.peek()
            if closing is None or closing[0] != "rparen":
                raise self.error("unbalanced parenthesis", [")"])
            self.advance()
            return inner
        if kind == "op" and value == "!":
            self.advance()
            operand = self.peek()
            if operand is None or operand[0] != "name" or operand[1] in _RESERVED:
                raise self.error("negation may only be applied to an atom", ["atom"])
            self.advance()
            if operand[1] not in self.ap:
                raise UndeclaredAtomError(operand[1], operand[2])
            return NotAtom(operand[1])
        if kind == "name":
            self.advance()
            if value == "true":
                return TOP
            if value == "false":
                return BOTTOM
            if value == "X":
                return Next(self.nested(self.parse_unary))
            if value == "F":
                return Eventually(self.nested(self.parse_unary))
            if value == "U":
                raise self.error("'U' is a binary operator", ["formula"])
            if value not in self.ap:
                raise UndeclaredAtomError(value, position)
            return Atom(value)
        raise self.error(f"unexpected token {value!r}", ["formula"])


def parse_formula(text: str, ap: Iterable[str]) -> Formula:
    """Parse ``text`` over the proposition set ``ap`` into an NNF parse tree."""
    return _Parser(text, ap).parse()


# ---------------------------------------------------------------------------
# Normalization and progression
# ---------------------------------------------------------------------------


def normalize(f: Formula) -> Formula:
    """Canonical representative of ``f``.

    Flattens and sorts conjunctions/disjunctions, dedupes operands and applies
    true/false absorption so that every residual satisfied by the empty word
    collapses to ``true`` and every falsified residual to ``false``.
    """
    if isinstance(f, (Top, Bottom, Atom, NotAtom)):
        return f
    if isinstance(f, Next):
        sub = normalize(f.sub)
        if sub == BOTTOM:
            return BOTTOM
        return Next(sub)
    if isinstance(f, Eventually):
        sub = normalize(f.sub)
        # F F φ = F φ on finite words
        if sub in (TOP, BOTTOM) or isinstance(sub, Eventually):
            return sub
        return Eventually(sub)
    if isinstance(f, Until):
        lhs = normalize(f.lhs)
        rhs = normalize(f.rhs)
        if rhs in (TOP, BOTTOM):
            return rhs
        if lhs == BOTTOM:
            return rhs
        if lhs == TOP:
            return Eventually(rhs)
        return Until(lhs, rhs)
    if isinstance(f, (And, Or)):
        is_and = isinstance(f, And)
        absorber, neutral = (BOTTOM, TOP) if is_and else (TOP, BOTTOM)
        flat: list[Formula] = []
        for g in f.operands:
            g = normalize(g)
            if g == absorber:
                return absorber
            if g == neutral:
                continue
            if isinstance(g, And if is_and else Or):
                flat.extend(g.operands)
            else:
                flat.append(g)
        unique = sorted(set(flat), key=lambda h: h.text())
        if not unique:
            return neutral
        if len(unique) == 1:
            return unique[0]
        return And(tuple(unique)) if is_and else Or(tuple(unique))
    raise TypeError(f"not a formula node: {f!r}")


def progress(f: Formula, symbol: frozenset[str]) -> Formula:
    """One-step derivative of ``f`` after reading ``symbol`` (not normalized)."""
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Atom):
        return TOP if f.name in symbol else BOTTOM
    if isinstance(f, NotAtom):
        return TOP if f.name not in symbol else BOTTOM
    if isinstance(f, And):
        return And(tuple(progress(g, symbol) for g in f.operands))
    if isinstance(f, Or):
        return Or(tuple(progress(g, symbol) for g in f.operands))
    if isinstance(f, Next):
        return f.sub
    if isinstance(f, Until):
        return Or((progress(f.rhs, symbol), And((progress(f.lhs, symbol), f))))
    if isinstance(f, Eventually):
        return Or((progress(f.sub, symbol), f))
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# DFA
# ---------------------------------------------------------------------------


def all_symbols(ap: Iterable[str]) -> tuple[frozenset[str], ...]:
    """The alphabet 2^AP in a deterministic order (by size, then lexicographic)."""
    props = sorted(set(ap))
    symbols = []
    for r in range(len(props) + 1):
        for combo in itertools.combinations(props, r):
            symbols.append(frozenset(combo))
    return tuple(symbols)


@dataclass(frozen=True)
class Dfa:
    """A total DFA over the alphabet 2^AP with absorbing accepting states."""

    ap: frozenset[str]
    states: tuple[str, ...]
    alphabet: tuple[frozenset[str], ...]
    delta: dict[tuple[str, frozenset[str]], str]
    initial: str
    accepting: frozenset[str]
    residuals: dict[str, str] = field(default_factory=dict, compare=False)
    _rows: dict[frozenset[str], list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each state in ``states``."""
        return {q: k for k, q in enumerate(self.states)}

    def row(self, symbol: frozenset[str]) -> list[int]:
        """``row(symbol)[k]``: index of the state reached from ``states[k]`` on ``symbol``.

        Computed once per symbol; every later call returns the same list, so
        the games built over this DFA share their automaton rows.
        """
        row = self._rows.get(symbol)
        if row is None:
            index, delta = self.index, self.delta
            row = self._rows[symbol] = [index[delta[(q, symbol)]] for q in self.states]
        return row

    def step(self, state: str, symbol: frozenset[str]) -> str:
        symbol = frozenset(symbol)
        if not symbol <= self.ap:
            raise AlphabetError(f"symbol {set(symbol)!r} is not a subset of AP {set(self.ap)!r}")
        return self.delta[(state, symbol)]

    def validate(self) -> None:
        """Check totality and accepting-state absorption; raise on violation."""
        for q in self.states:
            for sigma in self.alphabet:
                if (q, sigma) not in self.delta:
                    raise AlphabetError(f"transition missing for ({q}, {set(sigma)})")
                if q in self.accepting and self.delta[(q, sigma)] not in self.accepting:
                    raise AlphabetError(f"accepting state {q} is not absorbing on {set(sigma)}")


def compile_to_dfa(f: Formula, ap: Iterable[str], max_states: int = 10_000) -> Dfa:
    """Translate an NNF co-safe formula into a total DFA by formula progression.

    Raises :class:`UndeclaredAtomError` if ``f`` mentions a proposition outside
    ``ap`` and :class:`DfaSizeError` when more than ``max_states`` residual
    states are generated, or when a residual nests too deeply to progress
    (syntactic normalisation does not bound the residuals of nested ``U``).
    """
    ap = frozenset(ap)
    undeclared = atoms_of(f) - ap
    if undeclared:
        raise UndeclaredAtomError(sorted(undeclared)[0])
    symbols = all_symbols(ap)
    try:
        start = normalize(f)
        names: dict[Formula, str] = {start: "q0"}
        order = [start]
        delta: dict[tuple[str, frozenset[str]], str] = {}
        for state in order:  # grows while the search runs
            for sigma in symbols:
                nxt = normalize(progress(state, sigma))
                if nxt not in names:
                    if len(names) >= max_states:
                        raise DfaSizeError(
                            f"residual state space exceeds the cap of {max_states} states"
                        )
                    names[nxt] = f"q{len(names)}"
                    order.append(nxt)
                delta[(names[state], sigma)] = names[nxt]
    except RecursionError:
        raise DfaSizeError("residual formulas nest too deeply to compile") from None
    accepting = frozenset(names[g] for g in order if g == TOP)
    return Dfa(
        ap=ap,
        states=tuple(names[g] for g in order),
        alphabet=symbols,
        delta=delta,
        initial="q0",
        accepting=accepting,
        residuals={names[g]: g.text() for g in order},
    )


def accepts(d: Dfa, w: Sequence[Iterable[str]]) -> bool:
    """True iff some prefix of ``w`` drives the initial state into the accepting set."""
    q = d.initial
    if q in d.accepting:
        return True
    for symbol in w:
        q = d.step(q, frozenset(symbol))
        if q in d.accepting:
            return True
    return False
