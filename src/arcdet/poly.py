"""Sparse multivariate polynomials over an exact field, plus the expression parser.

Terms live in a dict from dense exponent tuples to nonzero coefficients;
the canonical term order is graded lexicographic, so equality is
structural and printing is reproducible.

Grammar (ASCII, whitespace insignificant)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' UINT)?
    atom   := INT | VAR | '(' expr ')'
    VAR    := ('x'|'y') UINT
"""

from __future__ import annotations

from .errors import ParseError
from .fields import QQ
from .series import TruncSeries


class MultiPoly:
    __slots__ = ("field", "variables", "terms")

    def __init__(self, field, variables, terms=None):
        self.field = field
        self.variables = tuple(variables)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != len(self.variables):
                    raise ValueError("exponent vector length != variable count")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                c = field.of(coeff)
                if not field.is_zero(c):
                    if exps in clean:
                        c = field.add(clean[exps], c)
                        if field.is_zero(c):
                            del clean[exps]
                            continue
                    clean[exps] = c
        self.terms = clean

    # --- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field, variables):
        return cls(field, variables)

    @classmethod
    def constant(cls, field, variables, c):
        c = field.of(c)
        if field.is_zero(c):
            return cls.zero(field, variables)
        return cls(field, variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def variable(cls, field, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"undeclared variable {name}")
        # one valid term: the per-term checks of __init__ have nothing to do
        p = cls(field, variables)
        p.terms = {tuple(1 if v == name else 0 for v in variables): field.one}
        return p

    @classmethod
    def coordinates(cls, field, variables):
        """The coordinate functions, one per variable, in order."""
        return [cls.variable(field, variables, v) for v in variables]

    # --- helpers ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {type(other).__name__}")
        if other.variables != self.variables or other.field != self.field:
            raise ValueError("polynomial variable/field mismatch")

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def max_exponent(self):
        """Largest single-variable exponent across all terms (0 for constants)."""
        best = 0
        for exps in self.terms:
            m = max(exps) if exps else 0
            if m > best:
                best = m
        return best

    def is_homogeneous(self, degree=None):
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    # --- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in out:
                s = f.add(out[exps], c)
                if f.is_zero(s):
                    del out[exps]
                else:
                    out[exps] = s
            else:
                out[exps] = c
        p = MultiPoly(f, self.variables)
        p.terms = out
        return p

    def __neg__(self):
        f = self.field
        p = MultiPoly(f, self.variables)
        p.terms = {e: f.neg(c) for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            f = self.field
            c = f.of(other)
            p = MultiPoly(f, self.variables)
            if not f.is_zero(c):
                p.terms = {e: f.mul(v, c) for e, v in self.terms.items()}
            return p
        self._check(other)
        f = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = f.mul(c1, c2)
                if e in out:
                    c = f.add(out[e], c)
                    if f.is_zero(c):
                        del out[e]
                        continue
                out[e] = c
        p = MultiPoly(f, self.variables)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.field, self.variables, self.field.one)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def map_coeffs(self, target_field):
        """Reinterpret coefficients in another field (e.g. Q -> F_q)."""
        out = {}
        for exps, c in self.terms.items():
            v = target_field.of(c)
            if not target_field.is_zero(v):
                out[exps] = v
        p = MultiPoly(target_field, self.variables)
        p.terms = out
        return p

    def substitute_series(self, coords):
        """Evaluate at a tuple of TruncSeries (one per variable), truncating.

        This is the pullback of the function along a jet; it is a ring
        homomorphism up to truncation.
        """
        if len(coords) != len(self.variables):
            raise ValueError(
                f"jet has {len(coords)} coordinates but polynomial has {len(self.variables)} variables"
            )
        if not coords:
            raise ValueError("need at least one variable")
        level = coords[0].level
        sf = coords[0].field
        acc = TruncSeries.zero(sf, level)
        powers = [dict() for _ in coords]
        for exps, c in self.sorted_terms():
            term = TruncSeries(sf, level, [sf.of(c)] + [sf.zero] * level)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if e not in powers[i]:
                    powers[i][e] = coords[i] ** e
                term = term * powers[i][e]
            acc = acc + term
        return acc

    # --- protocol -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and other.field == self.field
            and other.variables == self.variables
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.field, self.variables, tuple(self.sorted_terms())))

    def __repr__(self):
        return poly_to_string(self)


def _monomial_string(variables, exps):
    parts = []
    for v, e in zip(variables, exps):
        if e == 0:
            continue
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def poly_to_string(p: MultiPoly) -> str:
    """Canonical string; integer-coefficient output re-parses to the same poly."""
    if p.is_zero():
        return "0"
    chunks = []
    for i, (exps, c) in enumerate(p.sorted_terms()):
        mono = _monomial_string(p.variables, exps)
        neg = False
        cs = str(c)
        if cs.startswith("-"):
            neg = True
            cs = cs[1:]
        if not mono:
            body = cs
        elif cs == "1":
            body = mono
        else:
            body = f"{cs}*{mono}"
        if i == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)


# --- parser -------------------------------------------------------------------


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_uint(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an unsigned integer", start)
        return int(self.text[start : self.pos])


def parse_poly(text: str, variables, field=QQ) -> MultiPoly:
    """Parse an expression in the module grammar over the declared variables.

    Raises ParseError with the offending position, or on an undeclared
    variable.  Parsing then printing then parsing is the identity on
    integer-coefficient polynomials.
    """
    variables = tuple(variables)
    tok = _Tokenizer(text)

    def parse_expr():
        ch = tok.peek()
        negate = False
        if ch == "-":
            tok.pos += 1
            negate = True
        acc = parse_term()
        if negate:
            acc = -acc
        while True:
            ch = tok.peek()
            if ch == "+":
                tok.pos += 1
                acc = acc + parse_term()
            elif ch == "-":
                tok.pos += 1
                acc = acc - parse_term()
            else:
                return acc

    def parse_term():
        acc = parse_factor()
        while tok.peek() == "*":
            tok.pos += 1
            acc = acc * parse_factor()
        return acc

    def parse_factor():
        base = parse_atom()
        if tok.peek() == "^":
            tok.pos += 1
            if tok.peek() is None or not tok.peek().isdigit():
                raise ParseError("expected an exponent", tok.pos)
            e = tok.take_uint()
            base = base**e
        return base

    def parse_atom():
        ch = tok.peek()
        if ch is None:
            raise ParseError("unexpected end of input", tok.pos)
        if ch == "(":
            tok.pos += 1
            inner = parse_expr()
            if tok.peek() != ")":
                raise ParseError("expected ')'", tok.pos)
            tok.pos += 1
            return inner
        if ch.isdigit():
            n = tok.take_uint()
            return MultiPoly.constant(field, variables, n)
        if ch in ("x", "y"):
            start = tok.pos
            tok.pos += 1
            if tok.peek() is None or not tok.peek().isdigit():
                raise ParseError("expected a variable index", tok.pos)
            idx = tok.take_uint()
            name = f"{ch}{idx}"
            if name not in variables:
                raise ParseError(f"undeclared variable {name}", start)
            return MultiPoly.variable(field, variables, name)
        raise ParseError(f"unexpected character {ch!r}", tok.pos)

    result = parse_expr()
    if tok.peek() is not None:
        raise ParseError(f"unexpected character {tok.peek()!r}", tok.pos)
    return result
