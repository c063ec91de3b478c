"""The engine's signed lowering contract, pinned against a reference copy.

:class:`ReferenceLowering` below lowers operands the straightforward way
(``np.where`` signs, ``np.where`` sign extension, one ``np.any`` range
scan per check) on the public, self-validating ``APIMMultiplier.multiply``
and ``APIMAdder.add``/``add_many`` entry points.  The engine must match it
bit-for-bit in values, shapes, dtypes, ledger costs, operation counts and
every ``ConfigurationError`` it raises.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adder import APIMAdder
from repro.core.approximation import EXACT, ApproxSpec
from repro.core.config import APIMConfig, default_config
from repro.core.cost import Cost, CostLedger
from repro.core.engine import APIMEngine
from repro.core.multiplier import APIMMultiplier
from repro.core.timing import cost_copy
from repro.errors import ConfigurationError

WORD = default_config().word_bits


class ReferenceLowering:
    """The engine's arithmetic, lowered one conversion at a time."""

    def __init__(self, config: APIMConfig | None = None, spec=EXACT) -> None:
        self.config = config or default_config()
        self.spec = spec
        self.ledger = CostLedger()
        self.multiplier = APIMMultiplier(self.config)
        self.adder = APIMAdder(self.config)
        self.mul_count = 0
        self.add_count = 0
        self._sign_limit = np.int64(1 << (self.config.word_bits - 1))

    def mul(self, a, b, spec=None):
        spec = self.spec if spec is None else spec
        av, a_sign = self._to_magnitude(a, "a")
        bv, b_sign = self._to_magnitude(b, "b")
        result = self.multiplier.multiply(av, bv, spec)
        self.ledger.charge("multiply", result.cost)
        self.mul_count += int(np.asarray(result.products).size)
        return result.products.astype(np.int64) * (a_sign * b_sign)

    def add(self, a, b, width=None, spec=None):
        spec = self.spec if spec is None else spec
        width = width or self.config.word_bits
        if not 1 <= width <= 62:
            raise ConfigurationError(f"add width {width} outside [1, 62]")
        relax = min(spec.relax_bits, width)
        au = self._to_twos_complement(a, width, "a")
        bu = self._to_twos_complement(b, width, "b")
        result = self.adder.add(au, bu, relax_bits=relax, width=width)
        self.ledger.charge("add", result.cost)
        self.add_count += int(np.asarray(result.sums).size)
        return self._from_twos_complement(result.sums, width)

    def sub(self, a, b, width=None, spec=None):
        return self.add(a, -np.asarray(b, dtype=np.int64), width=width, spec=spec)

    def sum_many(self, operands, width=None, spec=None):
        spec = self.spec if spec is None else spec
        width = width or self.config.word_bits
        if not 1 <= width <= 58:
            raise ConfigurationError(f"sum_many width {width} outside [1, 58]")
        if not operands:
            raise ConfigurationError("sum_many needs at least one operand")
        relax = min(spec.relax_bits, width)
        lowered = [self._to_twos_complement(op, width, f"operand[{i}]")
                   for i, op in enumerate(operands)]
        result = self.adder.add_many(lowered, relax_bits=relax, width=width)
        self.ledger.charge("add", result.cost)
        self.add_count += int(np.asarray(result.sums).size) * (len(operands) - 1)
        return self._from_twos_complement(result.sums, width)

    def shift_left(self, values, shift):
        if shift < 0:
            raise ConfigurationError(f"shift must be >= 0, got {shift}")
        array = np.asarray(values, dtype=np.int64)
        if shift:
            limit = np.int64(1) << np.int64(61 - shift)
            if np.any(np.abs(array) >= limit):
                raise ConfigurationError(
                    f"shift_left by {shift} overflows the accumulator range"
                )
            copy = cost_copy(self.config.word_bits).scaled(array.size)
            self.ledger.charge(
                "interconnect",
                Cost(nor_ops=copy.nor_ops,
                     interconnect_bits=copy.interconnect_bits),
            )
        return array << np.int64(shift) if shift else array

    def _to_magnitude(self, values, name):
        array = np.asarray(values, dtype=np.int64)
        if np.any(np.abs(array) >= self._sign_limit):
            raise ConfigurationError(
                f"{name} magnitude exceeds the signed "
                f"{self.config.word_bits}-bit range"
            )
        signs = np.where(array < 0, np.int64(-1), np.int64(1))
        return np.abs(array).astype(np.uint64), signs

    @staticmethod
    def _to_twos_complement(values, width, name):
        array = np.asarray(values, dtype=np.int64)
        limit = np.int64(1) << np.int64(width - 1)
        if np.any(array >= limit) or np.any(array < -limit):
            raise ConfigurationError(f"{name} exceeds the signed {width}-bit range")
        modulus = np.uint64(1) << np.uint64(width)
        return array.astype(np.uint64) & (modulus - np.uint64(1))

    @staticmethod
    def _from_twos_complement(values, width):
        modulus = np.uint64(1) << np.uint64(width)
        low = np.asarray(values, dtype=np.uint64) & (modulus - np.uint64(1))
        signed = low.astype(np.int64)
        half = np.int64(1) << np.int64(width - 1)
        return np.where(signed >= half, signed - np.int64(2) * half, signed)


def _outcome(call):
    """``("ok", value)`` or ``("raised", message)`` for a ConfigurationError."""
    try:
        return "ok", call()
    except ConfigurationError as exc:
        return "raised", str(exc)


def assert_same(engine, reference, op, *args, **kwargs):
    """Run ``op`` on both; results, errors, ledgers and counters agree."""
    got = _outcome(lambda: getattr(engine, op)(*args, **kwargs))
    want = _outcome(lambda: getattr(reference, op)(*args, **kwargs))
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] == want[1]
    else:
        value, expected = got[1], want[1]
        assert np.shape(value) == np.shape(expected)
        assert np.asarray(value).dtype == np.asarray(expected).dtype
        assert np.array_equal(value, expected)
    assert engine.ledger.as_dict() == reference.ledger.as_dict()
    assert engine.mul_count == reference.mul_count
    assert engine.add_count == reference.add_count
    return got


def pair(spec=EXACT, config=None):
    return APIMEngine(config, spec), ReferenceLowering(config, spec)


# -- boundary values ---------------------------------------------------------


class TestBoundaries:
    EDGE = (1 << (WORD - 1)) - 1

    @pytest.mark.parametrize("sign", [1, -1])
    def test_mul_accepts_largest_magnitude(self, sign):
        engine, reference = pair()
        a = np.array([sign * self.EDGE, 3, -self.EDGE])
        kind, value = assert_same(engine, reference, "mul", a, self.EDGE)
        assert kind == "ok"
        assert np.array_equal(value, a * self.EDGE)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("operand", ["a", "b"])
    def test_mul_rejects_magnitude_at_word_limit(self, sign, operand):
        engine, reference = pair()
        bad = np.array([0, sign * (self.EDGE + 1)])
        args = (bad, 1) if operand == "a" else (1, bad)
        kind, message = assert_same(engine, reference, "mul", *args)
        assert kind == "raised"
        assert message.startswith(f"{operand} magnitude exceeds")

    @pytest.mark.parametrize("width", [1, 2, 20, 48, 62])
    def test_add_at_width_limits(self, width):
        top, bottom = (1 << (width - 1)) - 1, -(1 << (width - 1))
        engine, reference = pair()
        kind, _ = assert_same(
            engine, reference, "add", np.array([top, bottom, 0]),
            np.array([bottom, top, bottom]), width=width,
        )
        assert kind == "ok"
        for a, b in ((top + 1, 0), (0, bottom - 1)):
            kind, _ = assert_same(engine, reference, "add", a, b, width=width)
            assert kind == "raised"

    @pytest.mark.parametrize("width", [-1, 63])
    def test_add_rejects_width(self, width):
        kind, message = assert_same(*pair(), "add", 1, 1, width=width)
        assert kind == "raised" and "width" in message

    @pytest.mark.parametrize("width", [2, 32, 62])
    def test_sub_at_width_limits(self, width):
        top, bottom = (1 << (width - 1)) - 1, -(1 << (width - 1))
        engine, reference = pair()
        # -bottom does not fit, so subtracting the most negative value raises.
        assert assert_same(engine, reference, "sub", 0, bottom, width=width)[0] == "raised"
        assert assert_same(engine, reference, "sub", bottom, 1, width=width)[0] == "ok"
        assert assert_same(engine, reference, "sub", top, -top, width=width)[0] == "ok"

    @pytest.mark.parametrize("width", [1, 30, 58])
    def test_sum_many_at_width_limits(self, width):
        top, bottom = (1 << (width - 1)) - 1, -(1 << (width - 1))
        engine, reference = pair()
        ops = [np.array([top, bottom]), np.array([bottom, top]), 0]
        assert assert_same(engine, reference, "sum_many", ops, width=width)[0] == "ok"
        kind, message = assert_same(
            engine, reference, "sum_many", [0, 0, top + 1], width=width
        )
        assert kind == "raised" and message.startswith("operand[2]")

    @pytest.mark.parametrize("width", [-1, 59])
    def test_sum_many_rejects_width(self, width):
        assert assert_same(*pair(), "sum_many", [1, 2], width=width)[0] == "raised"

    def test_sum_many_rejects_empty(self):
        assert assert_same(*pair(), "sum_many", [])[0] == "raised"

    @pytest.mark.parametrize("shift", [1, 15, 61])
    def test_shift_left_at_accumulator_limit(self, shift):
        limit = 1 << (61 - shift)
        engine, reference = pair()
        ok = np.array([limit - 1, -(limit - 1), 0])
        assert assert_same(engine, reference, "shift_left", ok, shift)[0] == "ok"
        for bad in (limit, -limit):
            kind, _ = assert_same(engine, reference, "shift_left", bad, shift)
            assert kind == "raised"

    def test_shift_left_rejects_negative_shift(self):
        assert assert_same(*pair(), "shift_left", 3, -1)[0] == "raised"


# -- operand shapes --------------------------------------------------------------


class TestShapes:
    @pytest.mark.parametrize("relax", [0, 8])
    def test_zero_dimensional_operands(self, relax):
        engine, reference = pair(ApproxSpec.last_stage(relax))
        for op, args in (
            ("mul", (np.int64(-12345), np.int64(678))),
            ("mul", (-5, 0)),
            ("add", (np.int64(-9), np.int64(4))),
            ("sub", (3, 10)),
            ("sum_many", ([np.int64(-1), 2, np.int64(-3)],)),
            ("shift_left", (np.int64(-3), 4)),
        ):
            kind, value = assert_same(engine, reference, op, *args)
            assert kind == "ok" and np.shape(value) == ()

    @pytest.mark.parametrize("relax", [0, 12])
    def test_scalar_broadcast_operands(self, relax):
        engine, reference = pair(ApproxSpec.last_stage(relax))
        column = np.arange(-6, 6).reshape(-1, 1) * 1001
        row = np.array([[-77, 0, 5, 1 << 20]])
        assert_same(engine, reference, "mul", column, row)
        assert_same(engine, reference, "mul", np.broadcast_to(np.int64(-9), (3, 4)), row)
        assert_same(engine, reference, "mul", 7, column)
        assert_same(engine, reference, "add", column, row, width=40)
        assert_same(engine, reference, "sub", -3, row, width=40)
        assert_same(engine, reference, "sum_many", [column, row, -4], width=40)

    @pytest.mark.parametrize("relax", [0, 6])
    def test_zero_times_negative(self, relax):
        # Exact products are 0.  A relaxed final stage adding two zero
        # survivors sets its relaxed bits (0 + 0 + 0 is an error case of
        # S = NOT(Cout)), and the sign of the operands still applies.
        engine, reference = pair(ApproxSpec.last_stage(relax))
        zeros = np.zeros(4, dtype=np.int64)
        negatives = np.array([-1, -2, -(1 << 30), -12345])
        for a, b in ((zeros, negatives), (negatives, zeros), (0, -5), (-5, 0)):
            kind, value = assert_same(engine, reference, "mul", a, b)
            assert kind == "ok"
            if relax == 0:
                assert not np.any(np.asarray(value))


# -- property ------------------------------------------------------------------------


# Pairwise broadcast-compatible operand shapes.
SHAPES = st.sampled_from([(), (1,), (4,), (3, 4), (1, 4), (3, 1)])


def _operand(draw, shape, bound):
    values = draw(st.lists(
        st.integers(-bound, bound), min_size=max(1, int(np.prod(shape))),
        max_size=max(1, int(np.prod(shape))),
    ))
    return np.array(values, dtype=np.int64).reshape(shape)


@st.composite
def mul_case(draw):
    word = draw(st.sampled_from([8, 16, WORD]))
    edge = 1 << (word - 1)
    # Mostly in range, sometimes just past it, so errors are exercised too.
    bound = draw(st.sampled_from([edge - 1, edge - 1, edge - 1, edge + 2]))
    a = _operand(draw, draw(SHAPES), bound)
    b = _operand(draw, draw(SHAPES), bound)
    spec = ApproxSpec(
        masked_bits=draw(st.integers(0, word)),
        relax_bits=draw(st.integers(0, 2 * word)),
    )
    return word, a, b, spec


@st.composite
def add_case(draw):
    width = draw(st.integers(1, 62))
    edge = 1 << (width - 1)
    bound = draw(st.sampled_from([edge - 1, edge - 1, edge]))
    count = draw(st.integers(1, 5))
    operands = [_operand(draw, draw(SHAPES), bound) for _ in range(count)]
    spec = ApproxSpec(relax_bits=draw(st.integers(0, 64)))
    return width, operands, spec


@settings(max_examples=150, deadline=None)
@given(mul_case())
def test_mul_matches_reference_lowering(case):
    word, a, b, spec = case
    config = APIMConfig(word_bits=word)
    engine, reference = pair(config=config)
    assert_same(engine, reference, "mul", a, b, spec=spec)
    assert_same(engine, reference, "mul", b, a, spec=spec)


@settings(max_examples=150, deadline=None)
@given(add_case())
def test_add_sub_sum_many_match_reference_lowering(case):
    width, operands, spec = case
    engine, reference = pair(spec)
    first, second = operands[0], operands[-1]
    assert_same(engine, reference, "add", first, second, width=width)
    assert_same(engine, reference, "sub", first, second, width=width)
    if width <= 58:
        # Same-shape operands: the tree's in-place steps need them.
        assert_same(engine, reference, "sum_many",
                    np.broadcast_arrays(*operands), width=width)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 61), SHAPES, st.data())
def test_shift_left_matches_reference_lowering(shift, shape, data):
    bound = (1 << max(61 - shift, 0)) + 1
    values = _operand(data.draw, shape, bound)
    assert_same(*pair(), "shift_left", values, shift)
