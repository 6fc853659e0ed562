"""Reference answers computed without vspec.

Nothing here imports vspec: every verdict, witness and emitted file the
benchmark accepts is checked against these functions.
"""

from __future__ import annotations

import hashlib
import itertools
import shlex
import struct
from fractions import Fraction

# A one-hidden-layer net with two inputs and one output:
# f(x) = sum_j out[j] * relu(rows[j] . x + bias[j]) + out_bias.
Net = tuple[list[tuple[Fraction, Fraction]], list[Fraction], list[Fraction], Fraction]


def f32_bits(value: float) -> int:
    """The float32 nearest to ``value``, as its bit pattern."""
    return struct.unpack("<I", struct.pack("<f", value))[0]


def f32_value(bits: int) -> Fraction:
    """The exact rational a float32 bit pattern denotes (finite values only)."""
    sign = -1 if bits >> 31 else 1
    exponent = (bits >> 23) & 0xFF
    mantissa = bits & 0x7FFFFF
    if exponent == 0xFF:
        raise ValueError(f"float32 bit pattern {bits:#010x} is not finite")
    if exponent == 0:  # subnormal
        return sign * Fraction(mantissa, 1 << 149)
    scaled = Fraction((1 << 23) | mantissa)
    shift = exponent - 150
    return sign * (scaled * (1 << shift) if shift >= 0 else scaled / (1 << -shift))


def relu_net_value(net: Net, x: tuple[Fraction, Fraction]) -> Fraction:
    rows, bias, out, out_bias = net
    total = out_bias
    for (w0, w1), b, c in zip(rows, bias, out):
        pre = w0 * x[0] + w1 * x[1] + b
        if pre > 0:
            total += c * pre
    return total


def _intersection(l1, l2):
    """Meet of lines a0*x0 + a1*x1 + c = 0, or None when parallel."""
    (a0, a1, c), (b0, b1, d) = l1, l2
    det = a0 * b1 - a1 * b0
    if det == 0:
        return None
    return ((a1 * d - b1 * c) / det, (b0 * c - a0 * d) / det)


def exact_max_over_box(net: Net, lo: Fraction, hi: Fraction) -> tuple[Fraction, tuple]:
    """Maximum of ``net`` over the box [lo, hi]^2, and a point attaining it.

    The net is affine on each cell of the arrangement formed by its ReLU
    lines and the box edges, and each cell is a convex polygon, so the
    maximum is attained at a vertex of the arrangement: the meet of two of
    those lines that lies in the box.
    """
    one, zero = Fraction(1), Fraction(0)
    lines = [(w0, w1, b) for (w0, w1), b in zip(net[0], net[1])]
    lines += [(one, zero, -lo), (one, zero, -hi), (zero, one, -lo), (zero, one, -hi)]
    best: tuple[Fraction, tuple] | None = None
    for l1, l2 in itertools.combinations(lines, 2):
        point = _intersection(l1, l2)
        if point is None or not all(lo <= v <= hi for v in point):
            continue
        value = relu_net_value(net, point)
        if best is None or value > best[0]:
            best = (value, point)
    assert best is not None  # the box corners are always vertices
    return best


def render_number(q: Fraction) -> str:
    """Decimal when the denominator divides a power of ten, else ``p/q``."""
    if q.denominator == 1:
        return str(q.numerator)
    twos = (q.denominator & -q.denominator).bit_length() - 1
    rest, fives = q.denominator >> twos, 0
    while rest % 5 == 0:
        rest, fives = rest // 5, fives + 1
    if rest != 1:
        return f"{q.numerator}/{q.denominator}"
    k = max(twos, fives)
    scaled = abs(q.numerator) * 10**k // q.denominator
    sign = "-" if q < 0 else ""
    return f"{sign}{scaled // 10**k}.{scaled % 10**k:0{k}d}"


def spec_rational(q: Fraction) -> str:
    """A ``.vcl`` expression denoting ``q`` exactly."""
    if q.denominator == 1:
        return f"({q.numerator})"
    return f"({q.numerator} / {q.denominator})"


def sha256_file(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def read_vclp(path) -> dict:
    """Parse a ``.vclp`` proof cache into plain values."""
    out: dict = {"networks": {}, "properties": {}, "witness": {}, "itp": None}
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != "vclp 1":
        raise ValueError(f"{path}: not a vclp 1 file")
    for line in lines[1:]:
        parts = shlex.split(line)
        kind = parts[0]
        if kind == "spec":
            out["spec"] = (parts[1], parts[2].removeprefix("sha256:"))
        elif kind == "network":
            out["networks"][parts[1]] = (parts[2], parts[3].removeprefix("sha256:"))
        elif kind == "property":
            fields = dict(p.split("=", 1) for p in parts[3:])
            out["properties"][parts[1]] = (parts[2], int(fields["queries"]))
        elif kind == "witness":
            out["witness"][parts[1]] = {
                k: Fraction(v) for k, v in (p.split("=", 1) for p in parts[2:])
            }
        elif kind == "itp-module":
            out["itp"] = parts[1].removeprefix("sha256:")
        else:
            raise ValueError(f"{path}: unknown record {kind!r}")
    return out
