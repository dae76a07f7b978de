"""Term language for twisted identities.

A term is built from the variables x, y, z, the unit constant 1, a twist
application a(...) and a binary product.  An identity is either an equation
between two terms or the statement that the cyclic sum (over the three
cyclic assignments of x, y, z) of a single term vanishes.

Concrete syntax (whitespace insignificant)::

    identity := ["cyc"] side "=" (side | "0")
    side     := term ["*" term]            # one unparenthesized top product
    term     := var | "1" | "a(" term ")" | "(" term "*" term ")"
              | "[" term "," term "]"
    var      := "x" | "y" | "z"

Products carry no precedence: nested products must be explicitly grouped.
"= 0" is only legal together with the "cyc" prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import IdentitySyntaxError, NotSApplicable, UnknownVariable

VAR_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Twist:
    arg: "Term"


@dataclass(frozen=True)
class Prod:
    left: "Term"
    right: "Term"


Term = Union[Var, Unit, Twist, Prod]


@dataclass(frozen=True)
class Identity:
    """Equation (rhs is a term) or cyclic-sum-equals-zero (rhs is None).

    ``product`` only controls rendering: "star" prints products as
    ``(s*t)``, "bracket" as ``[s,t]``.
    """

    lhs: Term
    rhs: Optional[Term]
    product: str = "star"

    @property
    def cyclic(self) -> bool:
        return self.rhs is None

    def __str__(self) -> str:
        return render_identity(self)


@dataclass(frozen=True)
class TypeTag:
    """One of the twenty built-in identity types."""

    family: str  # "assoc" | "lie"
    name: str    # "I1" ... "III''"

    def __str__(self) -> str:
        return f"{self.family}:{self.name}"


TYPE_NAMES = ("I1", "I2", "I3", "II", "II1", "II2", "II3", "III", "III'", "III''")
ASSOC_TAGS = tuple(TypeTag("assoc", n) for n in TYPE_NAMES)
LIE_TAGS = tuple(TypeTag("lie", n) for n in TYPE_NAMES)
ALL_TAGS = ASSOC_TAGS + LIE_TAGS

_ASSOC_SOURCES = {
    "I1": "a(x)*(y*z) = (x*y)*a(z)",
    "I2": "x*(a(y)*z) = (x*a(y))*z",
    "I3": "x*(y*a(z)) = (a(x)*y)*z",
    "II": "x*a(y*z) = a(x*y)*z",
    "II1": "x*(a(y)*a(z)) = (a(x)*a(y))*z",
    "II2": "a(x)*(y*a(z)) = (a(x)*y)*a(z)",
    "II3": "a(x)*(a(y)*z) = (x*a(y))*a(z)",
    "III": "a(x*(y*z)) = a((x*y)*z)",
    "III'": "a(x)*a(y*z) = a(x*y)*a(z)",
    "III''": "a(x)*(a(y)*a(z)) = (a(x)*a(y))*a(z)",
}

_LIE_SOURCES = {
    "I1": "cyc [a(x),[y,z]] = 0",
    "I2": "cyc [x,[a(y),z]] = 0",
    "I3": "cyc [x,[y,a(z)]] = 0",
    "II": "cyc [x,a([y,z])] = 0",
    "II1": "cyc [x,[a(y),a(z)]] = 0",
    "II2": "cyc [a(x),[y,a(z)]] = 0",
    "II3": "cyc [a(x),[a(y),z]] = 0",
    "III": "cyc a([x,[y,z]]) = 0",
    "III'": "cyc [a(x),a([y,z])] = 0",
    "III''": "cyc [a(x),[a(y),a(z)]] = 0",
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.saw_bracket = False

    def error(self, message: str, cls=IdentitySyntaxError):
        raise cls(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def term(self) -> Term:
        c = self.peek()
        if c == "1":
            self.pos += 1
            return Unit()
        if c == "(":
            self.pos += 1
            left = self.term()
            self.take("*")
            right = self.term()
            self.take(")")
            return Prod(left, right)
        if c == "[":
            self.saw_bracket = True
            self.pos += 1
            left = self.term()
            self.take(",")
            right = self.term()
            self.take("]")
            return Prod(left, right)
        if c.isalpha():
            at = self.pos
            w = self.word()
            if w == "a" and self.peek() == "(":
                self.pos += 1
                inner = self.side()  # a(...) is self-delimiting
                self.take(")")
                return Twist(inner)
            if w in VAR_NAMES:
                return Var(w)
            self.pos = at
            self.error(f"unknown variable {w!r}", UnknownVariable)
        self.error("expected a term")

    def side(self) -> Term:
        left = self.term()
        if self.peek() == "*":
            self.pos += 1
            return Prod(left, self.term())
        return left


def parse_identity(text: str) -> Identity:
    """Parse identity source text into an :class:`Identity`."""
    p = _Parser(text)
    cyclic = False
    mark = p.pos
    if p.word() == "cyc":
        cyclic = True
    else:
        p.pos = mark
    lhs = p.side()
    p.take("=")
    if p.peek() == "0":
        p.pos += 1
        if not cyclic:
            p.error('"= 0" requires the "cyc" prefix')
        rhs = None
    else:
        if cyclic:
            p.error('"cyc" requires "= 0"')
        rhs = p.side()
    p.skip_ws()
    if p.pos != len(p.text):
        p.error("trailing input")
    return Identity(lhs, rhs, "bracket" if p.saw_bracket else "star")


def render_term(term: Term, product: str = "star") -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Unit):
        return "1"
    if isinstance(term, Twist):
        if isinstance(term.arg, Prod) and product == "star":
            l = render_term(term.arg.left, product)
            r = render_term(term.arg.right, product)
            return f"a({l}*{r})"
        return f"a({render_term(term.arg, product)})"
    if isinstance(term, Prod):
        l = render_term(term.left, product)
        r = render_term(term.right, product)
        if product == "bracket":
            return f"[{l},{r}]"
        return f"({l}*{r})"
    raise TypeError(f"not a term: {term!r}")


def _render_side(term: Term, product: str) -> str:
    if isinstance(term, Prod) and product == "star":
        return f"{render_term(term.left, product)}*{render_term(term.right, product)}"
    return render_term(term, product)


def render_identity(identity: Identity) -> str:
    lhs = _render_side(identity.lhs, identity.product)
    if identity.cyclic:
        return f"cyc {lhs} = 0"
    return f"{lhs} = {_render_side(identity.rhs, identity.product)}"


def _catalog() -> dict:
    out = {}
    for family, sources in (("assoc", _ASSOC_SOURCES), ("lie", _LIE_SOURCES)):
        for name, src in sources.items():
            out[TypeTag(family, name)] = parse_identity(src)
    return out


_BUILTINS = _catalog()


def builtin(tag: TypeTag) -> Identity:
    """Return the catalog identity for a built-in type tag."""
    try:
        return _BUILTINS[tag]
    except KeyError:
        raise KeyError(f"not a built-in type tag: {tag}") from None


def tag_from_string(text: str, default_family: str = "assoc") -> TypeTag:
    """Parse "I1", "lie:III'" or "assoc:II2" into a :class:`TypeTag`."""
    family, _, name = text.rpartition(":")
    family = family or default_family
    tag = TypeTag(family, name)
    if tag not in _BUILTINS:
        raise KeyError(f"unknown type tag {text!r}")
    return tag


def _s_term(term: Term) -> Term:
    if isinstance(term, Var):
        return Twist(term)
    if isinstance(term, Twist):
        if not isinstance(term.arg, Var):
            raise NotSApplicable(
                f"twist applied to non-variable subterm {render_term(term.arg)!r}"
            )
        return term.arg
    if isinstance(term, Prod):
        return Prod(_s_term(term.left), _s_term(term.right))
    return term


def s_transform(identity: Identity) -> Identity:
    """Exchange the twist map and the identity map at variable positions.

    Defined only when every twist in the identity wraps a bare variable;
    raises :class:`NotSApplicable` otherwise.  Involutive on its domain and
    carries each first-family type to the matching second-family type.
    """
    rhs = None if identity.rhs is None else _s_term(identity.rhs)
    return Identity(_s_term(identity.lhs), rhs, identity.product)


def term_variables(term: Term) -> tuple:
    """Variable names occurring in a term, with multiplicity."""
    if isinstance(term, Var):
        return (term.name,)
    if isinstance(term, Twist):
        return term_variables(term.arg)
    if isinstance(term, Prod):
        return term_variables(term.left) + term_variables(term.right)
    return ()
