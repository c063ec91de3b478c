"""Carry-save (3:2) reduction — the fast adder's arithmetic core.

The APIM fast adder (paper Section 3.2, Figure 2) reduces P operands to two
using layers of carry-save adders: every group of three operands is replaced
by a *sum* word (bitwise XOR) and a *carry* word (bitwise majority shifted
left by one).  Each layer costs 13 cycles regardless of operand width
because MAGIC executes all bit positions in parallel.

This module provides the reduction as bit-exact NumPy transforms, both for a
list of explicit operands (:func:`reduce_to_two`) and fused with partial
product generation for multiplication (:func:`reduce_partial_products`).
Carry-save reduction is *exact*: the two survivors always sum to the same
value as the inputs.  Approximation only ever enters in the final
two-operand addition (:mod:`repro.core.approximation`).

Note on fidelity: the hardware only instantiates partial products for *set*
multiplier bits, so operand grouping (and hence the individual survivor bit
patterns, though never their sum) depends on the multiplier's popcount.
:func:`reduce_partial_products` models that faithfully per scalar;
:func:`reduce_partial_products_vectorised` groups all N rows including
zeros, which preserves sums exactly and error statistics to within noise
(asserted by ``tests/test_cross_validation.py``).

Low-bit survivors: the approximate final stage only reads the ``r + 1``
least significant bits of the survivors' XOR (``r`` relaxed bits).  Every
carry-save operation is bitwise or a *left* shift, so bit ``j`` of a
survivor depends only on bits ``<= j`` of the partial-product rows, and
row ``i`` (the multiplicand shifted left by ``i``) is zero below bit
``i``.  :func:`reduce_partial_products_low` therefore builds only rows
``i < bits``, and of those only rows whose multiplier bit is set in some
element: the others are zero in every element (the array form of paper
Section 3.3's "we only generate a partial product when the multiplier
bits are 1").  Missing rows are known zeros, and a zero operand of a 3:2
group gives exactly what leaving it out does.  It runs the same grouping
as :func:`reduce_to_two` on the narrowest unsigned dtype holding ``bits``
bits: a group of three live operands is a full 3:2 step, two live operands
a half adder, one passes through.  Its survivors equal the full tree's in
their ``bits`` LSBs, which is exactly what the final stage needs.
:func:`reduce_partial_products_vectorised` stays as the full-width oracle
the tests check this against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "csa_step",
    "reduce_to_two",
    "partial_products",
    "reduce_partial_products",
    "reduce_partial_products_vectorised",
    "reduce_partial_products_low",
]

_ONE = np.uint64(1)

#: Unsigned lane types, narrowest first, for the low-bit reduction.
_LANE_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


def csa_step(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One 3:2 carry-save addition of unsigned operands: ``(sum, carry)``
    with ``sum + carry == a + b + c`` (modulo 2**width of their dtype).

    The carry is the bitwise majority ``(a & b) | (c & (a ^ b))``; both
    outputs are built in two fresh buffers, updated in place.
    """
    total = a ^ b
    carry = a & b
    carry |= c & total
    carry <<= 1
    total ^= c
    return total, carry


def reduce_to_two(operands: Sequence[np.ndarray | int]) -> tuple[np.ndarray, np.ndarray]:
    """Wallace-style reduction of arbitrarily many operands to two.

    Operands are grouped in threes per stage, exactly as the configurable
    interconnect arranges them in hardware; leftovers (one or two) pass
    through to the next stage unchanged.
    """
    if len(operands) == 0:
        raise ConfigurationError("cannot reduce an empty operand list")
    current = [np.asarray(op, dtype=np.uint64) for op in operands]
    if len(current) == 1:
        return current[0], np.zeros_like(current[0])
    x, y = _carry_save_tree(current)
    return x, y


def _carry_save_tree(operands: list) -> list:
    """Stage-by-stage grouping in threes down to at most two operands.

    ``None`` marks a known-zero operand: a group of three live operands
    is a full 3:2 step, two live ones a half adder, one passes through as
    the sum with a known-zero carry.  Leftovers pass to the next stage.
    """
    while len(operands) > 2:
        nxt: list = []
        groups = len(operands) // 3
        last = max(
            (i for i, op in enumerate(operands) if op is not None), default=-1
        )
        # Groups past the last live operand reduce to two known zeros.
        live_groups = min(groups, last // 3 + 1)
        for i in range(0, 3 * live_groups, 3):
            p, q, r = operands[i : i + 3]
            # Move the live operands to the front, in order.
            if p is None:
                p, q, r = q, r, p
            if p is None:
                p, q, r = q, r, p
            if q is None:
                q, r = r, q
            if r is not None:
                nxt.extend(csa_step(p, q, r))
            elif q is not None:
                carry = p & q
                carry <<= 1
                nxt.extend((p ^ q, carry))
            else:
                nxt.extend((p, None))
        nxt.extend([None] * (2 * (groups - live_groups)))
        remainder = len(operands) % 3
        if remainder:
            nxt.extend(operands[-remainder:])
        operands = nxt
    return operands


def partial_products(
    a: np.ndarray | int, b: np.ndarray | int, word_bits: int
) -> list[np.ndarray]:
    """All N shifted partial products ``(a << i) * bit_i(b)`` as uint64.

    Rows for zero multiplier bits are zero words — the vectorised reduction
    keeps them (see module docstring); the scalar path filters them out.
    """
    if not 1 <= word_bits <= 32:
        raise ConfigurationError(f"word_bits {word_bits} outside [1, 32]")
    av = np.asarray(a, dtype=np.uint64)
    bv = np.asarray(b, dtype=np.uint64)
    rows = []
    for i in range(word_bits):
        bit = (bv >> np.uint64(i)) & _ONE
        rows.append((av << np.uint64(i)) * bit)
    return rows


def reduce_partial_products_vectorised(
    a: np.ndarray, b: np.ndarray, word_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Carry-save survivors of ``a * b`` over whole arrays.

    Groups all ``word_bits`` partial-product rows (zero rows included), so
    every array element follows the same reduction schedule — this is what
    makes the transform expressible as a fixed sequence of vector ops.
    ``x + y == a * b`` exactly.

    This is the full-width reference: the functional multiplier builds
    only the low survivor bits (:func:`reduce_partial_products_low`) and
    the tests check it against this tree.
    """
    return reduce_to_two(partial_products(a, b, word_bits))


def reduce_partial_products_low(
    a: np.ndarray, b: np.ndarray, word_bits: int, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`reduce_partial_products_vectorised` survivors, built only
    in their ``bits`` least significant bits (see the module docstring).

    Returns two arrays of the narrowest unsigned dtype holding ``bits``
    bits whose ``bits`` LSBs equal the full-width survivors'; any higher
    bits of that dtype are meaningless (rows ``>= bits`` were dropped).
    """
    if not 1 <= word_bits <= 32:
        raise ConfigurationError(f"word_bits {word_bits} outside [1, 32]")
    if not 1 <= bits <= 64:
        raise ConfigurationError(f"bits {bits} outside [1, 64]")
    dtype = next(dt for dt in _LANE_DTYPES if np.iinfo(dt).bits >= bits)
    # Integer casts wrap, keeping exactly the low bits of the lane.
    av = np.asarray(a, dtype=np.uint64).astype(dtype)
    bv = np.asarray(b, dtype=np.uint64).astype(dtype)
    # Row i is (a << i) * bit_i(b): all zero unless some element of b
    # has bit i set, so only those rows are built; the rest, and every
    # row from ``bits`` up, are known zeros.
    used = int(np.bitwise_or.reduce(bv, axis=None))
    one = dtype(1)
    operands: list = [None] * word_bits
    for i in range(min(word_bits, bits)):
        if used >> i & 1:
            shift = dtype(i)
            operands[i] = (av << shift) * ((bv >> shift) & one)
    operands = _carry_save_tree(operands)
    zero = np.zeros(np.broadcast_shapes(av.shape, bv.shape), dtype=dtype)
    x = operands[0]
    y = operands[1] if len(operands) > 1 else None
    return (zero if x is None else x), (zero if y is None else y)


def reduce_partial_products(a: int, b: int, word_bits: int) -> tuple[int, int]:
    """Scalar carry-save survivors with hardware-faithful zero-row skipping.

    Only partial products of *set* multiplier bits enter the tree, matching
    the SA-gated copy in the hardware (paper Section 3.3: "we only generate
    a partial product when the multiplier bits are 1").
    """
    if not 1 <= word_bits <= 32:
        raise ConfigurationError(f"word_bits {word_bits} outside [1, 32]")
    if a < 0 or b < 0:
        raise ConfigurationError("operands must be non-negative")
    if a >= 1 << word_bits or b >= 1 << word_bits:
        raise ConfigurationError("operand exceeds word width")
    rows = [a << i for i in range(word_bits) if (b >> i) & 1]
    if not rows:
        return 0, 0
    if len(rows) == 1:
        return rows[0], 0
    x, y = reduce_to_two([np.uint64(r) for r in rows])
    return int(x), int(y)
