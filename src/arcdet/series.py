"""Univariate truncated power series known modulo t^(N+1).

A series at level N stores exactly N+1 coefficients.  The t-order of a
series is the index of its first nonzero coefficient; when every stored
coefficient vanishes the order is reported as ``None`` (the truncation
sentinel: the true order is >= N+1, possibly infinite).  Consumers that
need a finite order must treat ``None`` as an error, never as infinity.
"""

from __future__ import annotations


class TruncSeries:
    __slots__ = ("field", "level", "coeffs")

    def __init__(self, field, level, coeffs):
        if level < 0:
            raise ValueError("level must be >= 0")
        coeffs = tuple(field.of(c) for c in coeffs)
        if len(coeffs) != level + 1:
            raise ValueError(f"level {level} series needs {level + 1} coefficients, got {len(coeffs)}")
        self.field = field
        self.level = level
        self.coeffs = coeffs

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, field, level):
        return cls(field, level, (field.zero,) * (level + 1))

    @classmethod
    def one(cls, field, level):
        return cls(field, level, (field.one,) + (field.zero,) * level)

    @classmethod
    def t_power(cls, field, level, k):
        """The series t^k at the given level (zero when k > level)."""
        if k > level:
            return cls.zero(field, level)
        coeffs = [field.zero] * (level + 1)
        coeffs[k] = field.one
        return cls(field, level, coeffs)

    @classmethod
    def from_coeffs(cls, field, level, coeffs):
        """Pad or reject a raw coefficient list."""
        coeffs = list(coeffs)
        if len(coeffs) > level + 1:
            raise ValueError("too many coefficients for level")
        coeffs += [field.zero] * (level + 1 - len(coeffs))
        return cls(field, level, coeffs)

    # --- structure --------------------------------------------------------

    def ord(self):
        """Smallest index with nonzero coefficient, or None for the sentinel."""
        for i, c in enumerate(self.coeffs):
            if not self.field.is_zero(c):
                return i
        return None

    def is_unit(self):
        return not self.field.is_zero(self.coeffs[0])

    def _check(self, other):
        if not isinstance(other, TruncSeries):
            raise TypeError(f"expected TruncSeries, got {type(other).__name__}")
        if other.level != self.level or other.field != self.field:
            raise ValueError("series level/field mismatch")

    # --- arithmetic (exact mod t^(N+1)) ------------------------------------

    def __add__(self, other):
        self._check(other)
        f = self.field
        return TruncSeries(f, self.level, [f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        f = self.field
        return TruncSeries(f, self.level, [f.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        f = self.field
        return TruncSeries(f, self.level, [f.neg(a) for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            # scalar from the field
            f = self.field
            c = f.of(other)
            return TruncSeries(f, self.level, [f.mul(a, c) for a in self.coeffs])
        self._check(other)
        f = self.field
        n = self.level + 1
        out = [f.zero] * n
        for i, a in enumerate(self.coeffs):
            if f.is_zero(a):
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if not f.is_zero(b):
                    out[i + j] = f.add(out[i + j], f.mul(a, b))
        return TruncSeries(f, self.level, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power")
        result = TruncSeries.one(self.field, self.level)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        """Multiplicative inverse mod t^(N+1); requires a unit constant term."""
        f = self.field
        if not self.is_unit():
            raise ZeroDivisionError("series is not a unit (constant term vanishes)")
        inv0 = f.inv(self.coeffs[0])
        out = [f.zero] * (self.level + 1)
        out[0] = inv0
        # out[k] = -inv0 * sum_{i=1..k} self[i] * out[k-i]
        for k in range(1, self.level + 1):
            acc = f.zero
            for i in range(1, k + 1):
                acc = f.add(acc, f.mul(self.coeffs[i], out[k - i]))
            out[k] = f.neg(f.mul(inv0, acc))
        return TruncSeries(f, self.level, out)

    # --- protocol ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and other.field == self.field
            and other.level == self.level
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.level, self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if self.field.is_zero(c):
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*t" if c != 1 else "t")
            else:
                terms.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(t^{self.level + 1})"
