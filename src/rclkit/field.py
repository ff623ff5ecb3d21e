"""Exact ground fields: the rationals and prime fields F_p.

Elements are ints and Fractions (characteristic 0; an integral value is
always an int) or ints in [0, p) (characteristic p); the field object
supplies the arithmetic so that all downstream code is field-agnostic.
"""

from __future__ import annotations

from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RationalField:
    """QQ.  A value that is an integer is kept as an int, and only a value
    that is not is a Fraction, so most arithmetic stays on small ints; ints
    and Fractions of equal value compare and hash equal."""

    characteristic = 0
    zero = 0
    one = 1

    def of_int(self, n):
        return int(n)

    def add(self, a, b):
        c = a + b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        c = -a
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.div(1, a)

    def div(self, a, b):
        c = Fraction(a, b)
        return c.numerator if c.denominator == 1 else c

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, text: str):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(int(num), int(den))
        return int(text)

    def fmt(self, a) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")


class PrimeField:
    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def of_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, text: str):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(text) % self.p

    def fmt(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))


QQ = RationalField()


def make_field(kind: str, characteristic: int = 0):
    if kind == "rationals":
        return QQ
    if kind == "prime":
        return PrimeField(characteristic)
    raise ValueError("unknown field kind %r" % (kind,))
