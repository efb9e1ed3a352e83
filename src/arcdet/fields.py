"""Exact coefficient fields: the rationals and prime fields F_q.

Elements are plain Python values (``fractions.Fraction`` for the rationals,
``int`` in ``[0, q)`` for a prime field); a field object supplies the
operations.  Everything is exact; division by zero raises.
"""

from __future__ import annotations

from fractions import Fraction

_WORD_LIMIT = 2**31


def is_prime(n) -> bool:
    """True for an int, not a bool, that is a prime of at most 2^31.  The
    limit is tested first: trial division of a huge value would not finish."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2 or n > _WORD_LIMIT:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class RationalField:
    """The field Q.  Elements are Fractions."""

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_q for a machine-word prime q.  Elements are ints in [0, q)."""

    def __init__(self, q: int):
        if isinstance(q, int) and q > _WORD_LIMIT:
            raise ValueError(f"modulus {q} exceeds the machine-word limit 2^31")
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        self.q = q

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.q

    def of(self, x):
        if isinstance(x, int):
            return x % self.q
        if isinstance(x, Fraction):
            den = x.denominator % self.q
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.q}")
            return (x.numerator % self.q) * pow(den, -1, self.q) % self.q
        raise TypeError(f"cannot coerce {x!r} into F_{self.q}")

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.q}")
        return pow(a, -1, self.q)

    def is_zero(self, a):
        return a % self.q == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("GF", self.q))

    def __repr__(self):
        return f"GF({self.q})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(q: int) -> PrimeField:
    """Return the (cached) prime field with q elements."""
    if q not in _gf_cache:
        _gf_cache[q] = PrimeField(q)
    return _gf_cache[q]
