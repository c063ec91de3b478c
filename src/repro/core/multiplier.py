"""Functional (bit-accurate, vectorised) model of the APIM multiplier.

Implements the three-stage multiplication of paper Section 3.3 /
Figure 1(b)-(d) over NumPy arrays:

1. **Partial product generation** — the multiplier is read bit-wise through
   the sense amplifier and the (pre-inverted) multiplicand is copy-shifted
   into the processing block once per *set* bit.
2. **Fast addition** — Wallace 3:2 carry-save reduction of the partial
   products down to two survivors (:mod:`repro.core.wallace`).
3. **Final product generation** — serial addition of the survivors, either
   exact or with the last-stage approximation
   (:func:`repro.core.approximation.approximate_final_add`).

Only what the final stage reads is computed.  Let ``P = a * b`` be the
exact product (it fits in ``uint64`` since N <= 32).  The survivors always
sum to ``P``, so an exact final add (relax 0) *is* ``P`` and no tree is
built.  With ``r`` relaxed bits the result is
``(P & ~low) | (~(cin >> 1) & low)`` where ``cin = x ^ y ^ P`` is the
ripple carry-in vector and ``low`` masks the ``r`` LSBs: only bits
``<= r`` of ``x ^ y`` matter, and
:func:`~repro.core.wallace.reduce_partial_products_low` builds exactly
those.  Products are therefore bit-identical to reducing all N rows with
:func:`~repro.core.wallace.reduce_partial_products_vectorised` and
applying :func:`~repro.core.approximation.approximate_final_add` — the
oracle the tests check this path against.

Latency and energy are charged per array element from the canonical
formulas in :mod:`repro.core.timing`; because every per-element cost is a
pure function of the multiplier's popcount, array-wide cost evaluation is a
popcount histogram away from the scalar model.  The per-popcount cost
table depends only on ``(word_bits, relax_bits)``, so it is computed once
per process and shared by every multiplier.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from repro.core.approximation import (
    EXACT,
    ApproxSpec,
    approximate_final_add,
    mask_multiplier,
)
from repro.core.config import APIMConfig, default_config
from repro.core.cost import Cost
from repro.core.timing import cost_multiply
from repro.core.wallace import (
    reduce_partial_products,
    reduce_partial_products_low,
)
from repro.errors import ConfigurationError

__all__ = ["APIMMultiplier", "MultiplyResult", "popcount"]


def popcount(values: np.ndarray) -> np.ndarray:
    """Per-element set-bit count of a uint64 array."""
    return np.bitwise_count(np.asarray(values, dtype=np.uint64))


@lru_cache(maxsize=None)
def _cost_table(word_bits: int, relax_bits: int) -> tuple[tuple[float, ...], ...]:
    """Fields of one multiply's cost for every multiplier popcount."""
    return tuple(
        astuple(cost_multiply(word_bits, set_bits, relax_bits))
        for set_bits in range(word_bits + 1)
    )


@dataclass(frozen=True)
class MultiplyResult:
    """Products plus the aggregate cost of producing them."""

    products: np.ndarray
    cost: Cost

    def __iter__(self):
        return iter((self.products, self.cost))


class APIMMultiplier:
    """Unsigned N x N in-memory multiplier (functional model).

    Parameters
    ----------
    config:
        Architecture configuration; ``config.word_bits`` fixes the operand
        width N (the paper evaluates N = 32, product width 64).
    """

    def __init__(self, config: APIMConfig | None = None) -> None:
        self.config = config or default_config()
        n = self.config.word_bits
        if n > 32:
            raise ConfigurationError(
                "functional multiplier supports word_bits <= 32 "
                "(products must fit in uint64)"
            )
        self._operand_mask = np.uint64((1 << n) - 1)

    # -- public API -------------------------------------------------------

    def multiply(
        self, a: np.ndarray | int, b: np.ndarray | int, spec: ApproxSpec = EXACT
    ) -> MultiplyResult:
        """Multiply arrays of unsigned operands under an approximation spec.

        Returns products as ``uint64`` and the summed :class:`Cost` over all
        elements.  Operands must fit in ``word_bits``.
        """
        spec.validate_for(self.config.word_bits)
        av = self._check_operands(a, "multiplicand")
        bv = self._check_operands(b, "multiplier")
        products, cost = self._multiply(av, bv, spec)
        return MultiplyResult(products=products, cost=cost)

    def _multiply(
        self, av: np.ndarray, bv: np.ndarray, spec: ApproxSpec
    ) -> tuple[np.ndarray, Cost]:
        """:meth:`multiply` on uint64 operands already known to fit in
        ``word_bits`` (the engine's lowering has range-checked them)."""
        n = self.config.word_bits
        spec.validate_for(n)
        b_eff = mask_multiplier(bv, spec.masked_bits, n)
        counts = popcount(b_eff)
        exact = av * b_eff
        relax = spec.relax_bits
        products = exact
        if relax:
            # Survivors only matter through bits <= relax of x ^ y.
            x, y = reduce_partial_products_low(av, b_eff, n, min(relax + 1, 64))
            carries_in = (x ^ y).astype(np.uint64) ^ exact
            low = np.uint64((1 << relax) - 1)
            products = (exact & ~low) | (~(carries_in >> np.uint64(1)) & low)
            # Multipliers with at most one set bit never enter the final
            # stage (the lone partial product *is* the product), so no
            # approximation is applied to them in hardware.
            trivial = counts <= 1
            if np.any(trivial):
                products = np.where(trivial, exact, products)
        return products, self._array_cost(counts, relax)

    def multiply_scalar(
        self, a: int, b: int, spec: ApproxSpec = EXACT
    ) -> tuple[int, Cost]:
        """Hardware-faithful scalar multiply (zero partial products skipped).

        This is the reference the structural crossbar simulator is validated
        against; it differs from :meth:`multiply` only in which rows enter
        the reduction tree (never in the exact product value).
        """
        n = self.config.word_bits
        spec.validate_for(n)
        if a < 0 or b < 0 or a >= 1 << n or b >= 1 << n:
            raise ConfigurationError(
                f"operands ({a}, {b}) must be unsigned {n}-bit values"
            )
        b_eff = int(mask_multiplier(b, spec.masked_bits, n))
        set_bits = bin(b_eff).count("1")
        if set_bits <= 1:
            # No final stage: the lone (or absent) partial product is exact.
            return a * b_eff, cost_multiply(n, set_bits, spec.relax_bits)
        x, y = reduce_partial_products(a, b_eff, n)
        product = int(
            approximate_final_add(
                np.uint64(x), np.uint64(y), 2 * n, spec.relax_bits
            )
        )
        return product, cost_multiply(n, set_bits, spec.relax_bits)

    def exact_reference(self, a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray:
        """The golden exact product (no cost), for accuracy evaluation."""
        av = self._check_operands(a, "multiplicand")
        bv = self._check_operands(b, "multiplier")
        return av * bv

    # -- internals ---------------------------------------------------------

    def _check_operands(self, values: np.ndarray | int, name: str) -> np.ndarray:
        array = np.asarray(values, dtype=np.uint64)
        if np.any(array > self._operand_mask):
            raise ConfigurationError(
                f"{name} exceeds the {self.config.word_bits}-bit word width"
            )
        return array

    def _array_cost(self, counts: np.ndarray, relax_bits: int) -> Cost:
        """Aggregate cost over an array of multiplier popcounts.

        Fields are summed as plain floats in ascending-popcount order, the
        same operations :meth:`Cost.scaled` and ``+`` would perform.
        """
        n = self.config.word_bits
        histogram = np.bincount(counts.ravel(), minlength=n + 1).tolist()
        table = _cost_table(n, relax_bits)
        totals = [0.0] * len(table[0])
        for set_bits, occurrences in enumerate(histogram):
            if occurrences:
                for field, value in enumerate(table[set_bits]):
                    totals[field] += value * occurrences
        return Cost(*totals)
