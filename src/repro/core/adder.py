"""Functional model of APIM's in-memory adders.

Two entry points mirror the hardware:

- :meth:`APIMAdder.add` — the serial two-operand adder (paper Section 2 /
  Talati-style MAGIC ripple addition, ``12N + 1`` cycles), optionally with
  the last-stage approximation applied to its ``relax_bits`` LSBs.  APIM
  reuses the same MAJ-based shortcut for standalone additions as for the
  multiplier's final stage, which is where most of Table 1's application
  speed-up on addition-heavy kernels comes from.
- :meth:`APIMAdder.add_many` — the fast multi-operand adder (paper
  Section 3.2, Figure 2): Wallace 3:2 reduction of all operands followed by
  one serial addition of the two survivors.

Values are bit-accurate uint64 transforms; costs come from
:mod:`repro.core.timing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core.approximation import approximate_final_add
from repro.core.config import APIMConfig, default_config
from repro.core.cost import Cost
from repro.core.timing import (
    cost_hybrid_final_add,
    cost_wallace_reduce,
    reduction_stages,
)
from repro.core.wallace import reduce_to_two
from repro.errors import ApproximationError, ConfigurationError

__all__ = ["APIMAdder", "AddResult"]


@lru_cache(maxsize=None)
def _add_cost(width: int, relax_bits: int) -> Cost:
    """Per-element cost of one two-operand add."""
    return cost_hybrid_final_add(width, relax_bits)


@lru_cache(maxsize=None)
def _add_many_plan(operands: int, width: int, relax_bits: int) -> tuple[int, Cost]:
    """Final-stage width and per-element cost of one ``operands``-way
    tree add at ``width``."""
    stages = reduction_stages(operands)
    final_width = min(width + max(stages - 1, 0) + 1, 64)
    cost = Cost()
    if stages:
        cost += cost_wallace_reduce(operands, width)
    return final_width, cost + cost_hybrid_final_add(
        final_width - 1, min(relax_bits, final_width - 1)
    )


@dataclass(frozen=True)
class AddResult:
    """Sums plus the aggregate cost of producing them."""

    sums: np.ndarray
    cost: Cost

    def __iter__(self):
        return iter((self.sums, self.cost))


class APIMAdder:
    """In-memory adder (functional model) for ``config.word_bits`` operands."""

    def __init__(self, config: APIMConfig | None = None) -> None:
        self.config = config or default_config()

    def add(
        self,
        a: np.ndarray | int,
        b: np.ndarray | int,
        relax_bits: int = 0,
        width: int | None = None,
    ) -> AddResult:
        """Add element-wise; result is ``width + 1`` bits (carry included).

        ``relax_bits`` LSBs of each sum are produced by the MAJ-based
        approximation; the rest (including the carry-out) are exact.
        """
        width = width or self.config.word_bits
        if not 1 <= width <= 63:
            raise ConfigurationError(f"add width {width} outside [1, 63]")
        if not 0 <= relax_bits <= width:
            raise ApproximationError(
                f"relax_bits {relax_bits} outside [0, {width}]"
            )
        av = self._check(a, width, "a")
        bv = self._check(b, width, "b")
        sums, cost = self._add(av, bv, relax_bits, width)
        return AddResult(sums=sums, cost=cost)

    def _add(
        self, av: np.ndarray, bv: np.ndarray, relax_bits: int, width: int
    ) -> tuple[np.ndarray, Cost]:
        """:meth:`add` on uint64 operands already known to fit in
        ``width`` bits, with ``width`` and ``relax_bits`` valid."""
        # Operands are < 2**width so x + y < 2**(width+1); evaluate the
        # approximation over width+1 bits so the carry-out stays exact.
        sums = approximate_final_add(av, bv, width + 1, relax_bits)
        count = np.broadcast(av, bv).size
        return sums, _add_cost(width, relax_bits).scaled(count)

    def add_many(
        self,
        operands: Sequence[np.ndarray | int],
        relax_bits: int = 0,
        width: int | None = None,
    ) -> AddResult:
        """Fast multi-operand addition (tree reduction + one serial add).

        All operands are added element-wise; with P operands the reduction
        costs ``13 * stages(P)`` cycles and the final serial addition runs
        at the grown width ``width + stages(P) - 1``.
        """
        width = width or self.config.word_bits
        if not operands:
            raise ConfigurationError("add_many needs at least one operand")
        arrays = [self._check(op, width, f"operand[{i}]") for i, op in enumerate(operands)]
        sums, cost = self._add_many(arrays, relax_bits, width)
        return AddResult(sums=sums, cost=cost)

    def _add_many(
        self, arrays: Sequence[np.ndarray], relax_bits: int, width: int
    ) -> tuple[np.ndarray, Cost]:
        """:meth:`add_many` on a non-empty list of uint64 operands already
        known to fit in ``width`` bits."""
        if len(arrays) == 1:
            return np.array(arrays[0], dtype=np.uint64), Cost()
        shape = np.broadcast_shapes(*(np.shape(op) for op in arrays))
        # The tree's steps update buffers in place, so every operand
        # takes the common shape.
        arrays = [
            op if np.shape(op) == shape else np.broadcast_to(op, shape)
            for op in arrays
        ]
        x, y = reduce_to_two(arrays)
        final_width, cost = _add_many_plan(len(arrays), width, relax_bits)
        sums = approximate_final_add(x, y, final_width, min(relax_bits, final_width))
        return sums, cost.scaled(int(np.prod(shape)))

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _check(values: np.ndarray | int, width: int, name: str) -> np.ndarray:
        array = np.asarray(values, dtype=np.uint64)
        limit = np.uint64((1 << width) - 1)
        if np.any(array > limit):
            raise ConfigurationError(f"{name} exceeds the {width}-bit width")
        return array
