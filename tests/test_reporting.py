"""The array %.17g kernel behind surface.csv against format(x, ".17g")."""

from __future__ import annotations

import math
import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronfix import reporting
from fronfix.model import ModelParams
from fronfix.scheme import run_solver

SRC = str(Path(reporting.__file__).resolve().parents[1])


def kernel_lines(x) -> tuple[list[bytes], int]:
    """The kernel's bytes for each value of x, and how many took the scalar path."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    words = np.zeros((x.size, 4), reporting._WORD)
    slow = reporting._g17_fields(x, words)
    words[:, 3] |= reporting._NEWLINE
    return words.tobytes().translate(None, b"\0").split(b"\n")[:-1], slow


def assert_formats_like_python(values) -> None:
    values = [float(x) for x in values]
    got, _ = kernel_lines(values)
    want = [format(x, ".17g").encode() for x in values]
    assert len(got) == len(want)
    wrong = [(x, g, w) for x, g, w in zip(values, got, want) if g != w]
    assert wrong == []


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def with_neighbours(values, ulps: int = 1) -> list[float]:
    out = []
    for x in values:
        lo = hi = x
        out.append(x)
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return out + [-x for x in out]


def exact_ties() -> list[float]:
    """Doubles whose 18th significant digit is an exact 5 followed by zeros."""
    ties = []
    for e in range(4, 17):
        for j in range(1, 400):
            x = 10.0**e + j * math.ulp(10.0**e)
            scaled = Fraction(x) * Fraction(10) ** (16 - e)
            if scaled.denominator == 2:
                ties.append(x)
    # below 10 the array path runs: x = k * 2**-17 in [1, 2) with k odd has
    # x * 10**16 = k * 5**16 / 2
    ties += [k * 2.0**-17 for k in range(2**17 + 1, 2**18, 64)]
    # k * 2**-s with k odd is k * 5**(s-1) / 2 times 10**(1-s), a tie when
    # that half-integer has 17 digits
    for s in range(10, 60):
        for k in range(1, 200, 2):
            scaled = Fraction(k * 2.0**-s) * Fraction(10) ** (s - 1)
            if 10**16 <= scaled < 10**17:
                ties.append(k * 2.0**-s)
    return ties


ADVERSARIAL = {
    "powers-of-ten": with_neighbours([10.0**k for k in range(-323, 309)]),
    # %g switches to scientific below 1e-4 and at 1e17 (precision 17)
    "g-switch-points": with_neighbours([1e-5, 1e-4, 1e16, 1e17, 9.9999e-5, 99999999999999990.0], 3),
    "large-integers": with_neighbours([2.0**54 + k for k in range(0, 64, 4)]
                                      + [2.0**53 + k for k in range(-3, 4)]),
    "exact-ties": with_neighbours(exact_ties()),
    # the ends of the fast range [1e-280, 10), the subnormals and the largest doubles
    "range-ends": with_neighbours([1e-280, 10.0, 1e280, 5e-324, 2.2250738585072014e-308,
                                   1.7976931348623157e308, 1e-300, 1e300], 2),
    "zeros-and-specials": [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0,
                           0.5, 0.1, 100.0, 1e15 + 0.25, 123456789012345.67],
}


class TestG17Kernel:
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_format_for_any_double(self, values):
        assert_formats_like_python(values)

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_format_for_any_bit_pattern(self, patterns):
        assert_formats_like_python([bits_to_float(b) for b in patterns])

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_values(self, name):
        assert_formats_like_python(ADVERSARIAL[name])

    def test_exact_ties_exist_and_round_half_even(self):
        ties = exact_ties()
        assert len(ties) >= 50
        assert sum(t < 10 for t in ties) >= 2000
        assert 1.0251998901367188e-05 in ties
        assert format(1e15 + 0.25, ".17g") == "1000000000000000.2"
        _, slow = kernel_lines(ties)
        assert slow == len(ties)  # a tie is never certified

    def test_values_of_ten_and_more_take_format(self):
        rng = np.random.default_rng(10)
        big = [10.0, math.nextafter(10.0, math.inf), 1e300]
        big += (10.0 ** rng.uniform(1, 300, 4000)).tolist()
        values = big + [-x for x in big]
        got, slow = kernel_lines(values)
        assert slow == len(values)
        assert got == [format(x, ".17g").encode() for x in values]

    @pytest.mark.parametrize("E", [1.0, 100.0])
    def test_real_surface_rarely_takes_the_scalar_path(self, E):
        run = run_solver(ModelParams(r=0.1, sigma=0.2, E=E, T=1.0), 400, 20.0, 4.0)
        values = np.concatenate([run.surface.v.ravel(), E * run.surface.v.ravel()])
        got, slow = kernel_lines(values)
        # every zero falls back by design (2672 of the 200,901 values of v);
        # of the rest, no more than 1% may
        zeros = int(np.count_nonzero(values == 0.0))
        assert slow - zeros <= 0.01 * (values.size - zeros)
        assert got == [format(x, ".17g").encode() for x in values.tolist()]

    def test_negatives_and_zeros_take_format(self):
        rng = np.random.default_rng(12)
        negatives = [-1e-280, -1.0, -math.nextafter(10.0, 0.0), -5e-324]
        negatives += (-(10.0 ** rng.uniform(-280, 1, 4000))).tolist()
        values = [0.0, -0.0] + negatives
        got, slow = kernel_lines(values)
        assert slow == len(values)
        assert got == [format(x, ".17g").encode() for x in values]

    def test_importing_the_cli_builds_no_table(self):
        code = ("import fronfix.cli, fronfix.reporting as r; "
                "print(r._g17_tables.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.stdout.strip() == "0", done.stderr
