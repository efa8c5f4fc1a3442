"""Dense integer-coefficient polynomials in one variable.

Small and exact: coefficients are Python ints, stored ascending by degree
with no trailing zeros, so equal polynomials compare equal structurally.
"""

from __future__ import annotations


class IntPolynomial:
    """An exact polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        object.__setattr__(self, "coeffs", _trimmed(cs))

    @classmethod
    def _of(cls, cs: list) -> IntPolynomial:
        """The polynomial of ``cs``, a list already known to hold ints (the
        result of arithmetic on checked polynomials): trimmed, not checked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", _trimmed(cs))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial._of([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial._of([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial._of(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial._of([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial._of([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return IntPolynomial._of(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial._of([other * c for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPolynomial._of([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial._of(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"nonnegative integer exponent required, got {exponent}")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        """Evaluate at ``x`` (int or exact rational) by Horner's rule."""
        if not isinstance(x, int):
            from numbers import Rational  # only here, to keep it out of every CLI start

            if not isinstance(x, Rational):
                raise TypeError(f"exact argument required, got {x!r}")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"IntPolynomial({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def _trimmed(cs: list) -> tuple:
    # Drop trailing zeros, so equal polynomials have equal coefficients.
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


#: The zero-degree unit and the variable itself, for building expressions.
ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))
