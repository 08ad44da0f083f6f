"""The text of the CSV artifacts.

core._g17_cells writes '%.17g' with numpy integer arithmetic.  Each class of
float64 below is checked against Python's own format(v, '.17g'), the
correctly rounded reference.  The file bytes of core.write_long_csv are
pinned by digest, and its scratch memory is one block whatever the ensemble.
"""

import hashlib
import io
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from delaylab import core
from test_sdde import _reference_csv

RNG_SEED = 20261019


def g17(values):
    """The text the kernel writes for each value."""
    v = np.asarray(values, np.float64).ravel()
    cells = core._g17_cells(v)
    return [c.tobytes().translate(None, b"\0").decode("ascii")[1:] for c in cells.T]


def assert_formats_like_python(values):
    values = np.asarray(values, np.float64).ravel()
    want = [format(v, ".17g") for v in values.tolist()]
    got = g17(values)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, f"{len(wrong)} of {values.size} differ, e.g. {wrong[:5]}"


def both_signs(values):
    values = np.asarray(values, np.float64)
    return np.concatenate([values, -values])


def neighbours(values):
    """Each value with the float64 just below and just above it."""
    values = np.asarray(values, np.float64)
    return np.concatenate(
        [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    )


def splitmix_bits(n, stream):
    return core.splitmix64_mix(np.arange(n, dtype=np.uint64) + np.uint64(stream << 32))


def in_range(bits):
    """The same patterns with the binary exponent moved into [2^-34, 2^46],
    where the kernel, not Python, writes the text."""
    exponent = np.uint64(989) + (bits >> np.uint64(52)) % np.uint64(81)
    keep = np.uint64((1 << 63) | ((1 << 52) - 1))
    return ((bits & keep) | (exponent << np.uint64(52))).view(np.float64)


def in_kernel(bits):
    """The same patterns with the binary exponent moved into [2^-13, 2^18],
    the binades inside [1e-4, 1e6), where the kernel writes every value."""
    exponent = np.uint64(1010) + (bits >> np.uint64(52)) % np.uint64(32)
    keep = np.uint64((1 << 63) | ((1 << 52) - 1))
    return ((bits & keep) | (exponent << np.uint64(52))).view(np.float64)


def by_kernel(values):
    """Whether the kernel, not Python, wrote each nonzero value's cell: the
    kernel's point is word 2 alone, or closes word 0 when |v| < 1, while
    Python's text runs on from word 1.  (A text of at most four bytes, such
    as 10.5, has the same words either way.)"""
    v = np.asarray(values, np.float64).ravel()
    words = core._g17_cells(v).T.copy().view(np.uint8).reshape(v.size, 7, 4)
    point_alone = np.isin(words[:, 2, 0], [0, ord(".")]) & (words[:, 2, 1:] == 0).all(axis=1)
    point_in_head = (words[:, 0] == ord(".")).any(axis=1)
    return point_alone & (point_in_head == (np.abs(v) < 1))


def is_tie(v):
    """v lies halfway between two 17-digit decimals."""
    digits = Decimal(v).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def tie_rounds_down(v):
    """Half to even drops the final 5 of the tie v (its 17th digit is even)."""
    return Decimal(v).as_tuple().digits[-2] % 2 == 0


SPECIAL = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
    5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 2.2250738585072014e-308,
    1e300, -1e300, 1.7976931348623157e308,
]


class TestAgainstPythonFormat:
    def test_zeros_and_values_python_writes(self):
        # -2.2250738585072014e-308 and -1.7976931348623157e+308 are 24
        # bytes, the longest text Python writes into a cell.
        assert_formats_like_python(both_signs(SPECIAL))
        assert g17([0.0, -0.0]) == ["0", "-0"]

    def test_powers_of_ten_and_their_neighbours(self):
        powers = [float(f"1e{j}") for j in range(-12, 17)]
        assert_formats_like_python(both_signs(neighbours(powers)))

    def test_edges_of_the_kernel_range(self):
        edges = [1e-4, 1e6, 1e-3, 1e5, 1.0, 0.1, 1e-10, 1e14]
        values = both_signs(neighbours(neighbours(edges)))
        assert_formats_like_python(values)
        # Both sides of both edges are in the set: the kernel writes one
        # side, Python the other.
        a = np.abs(values)
        for edge in (1e-4, 1e6):
            assert (a < edge).any() and (a >= edge).any() and (a == edge).any()
        inside = (a >= 1e-4) & (a < 1e6)
        assert (by_kernel(values) == inside).all()
        assert by_kernel([1e-4, -1e-4, np.nextafter(1e6, 0)]).all()
        assert not by_kernel([np.nextafter(1e-4, 0), 1e6, -1e6]).any()

    def test_round_half_to_even_ties(self):
        # B + c/2^p with c odd has exactly 18 significant digits when B has
        # 18 - p digits, so it lies halfway between two 17-digit decimals;
        # so does c/2^p when c·5^p has 18 digits.
        rng = np.random.default_rng(RNG_SEED)
        values = []
        for p in range(12, 18):
            whole = rng.integers(10 ** (17 - p), 10 ** (18 - p), 500)
            odd = 2 * rng.integers(0, 2 ** (p - 1), 500) + 1
            values.append(whole + odd / 2.0**p)
        for p in range(18, 34):
            odd = 2 * rng.integers(0, 2**20, 3000) + 1
            values.append(odd / 2.0**p)
        values = np.concatenate(values)
        ties = [v for v in values.tolist() if is_tie(v) and 1e-4 <= v < 1e6]
        assert len(ties) > 2000 and by_kernel(ties).all()
        # Half of the ties round down: half-up rounding would differ there.
        assert sum(tie_rounds_down(v) for v in ties) > len(ties) // 4
        assert_formats_like_python(both_signs(ties))

    def test_values_next_to_a_rounding_carry(self):
        # A value that rounds up to a power of ten at 17 digits would need
        # a float64 within 5e-18 relative below it; the nearest below each
        # power in the kernel's range is farther, so none carries, and the
        # kernel has no carry step.
        powers = [float(f"1e{j}") for j in range(-3, 7)]
        below = np.array(powers)
        for _ in range(3):
            below = np.nextafter(below, 0)
            assert by_kernel(below).all()
            assert_formats_like_python(both_signs(below))
        for p, b in zip(powers, np.nextafter(powers, 0).tolist()):
            assert not format(b, ".17g").startswith("1"), (p, b)
        nines = [float(f"9.99999999999999999{c}e{j}") for j in range(-4, 6) for c in range(10)]
        assert_formats_like_python(both_signs(neighbours(nines)))

    def test_integers(self):
        # The path column, and whole numbers whose trailing zeros are digits
        # of the integer part, not of a fraction.
        assert_formats_like_python(np.arange(100_001))
        big = [10.0**j * c for j in range(5, 14) for c in (1, 2, 5, 9)]
        assert_formats_like_python(both_signs(neighbours(big + [99999999999999.0])))
        assert g17([100.0, 1e13, 1234500.0]) == ["100", "10000000000000", "1234500"]

    def test_rounded_decimals(self):
        rng = np.random.default_rng(RNG_SEED)
        x = rng.standard_normal(20_000)
        for digits in (0, 1, 3, 6, 9):
            assert_formats_like_python(np.round(x * 10.0 ** rng.integers(-6, 8, x.size), digits))

    def test_random_bit_patterns(self):
        bits = splitmix_bits(100_000, stream=1)
        assert_formats_like_python(bits.view(np.float64))
        assert_formats_like_python(in_range(bits))
        assert by_kernel(in_kernel(bits)).all()
        assert_formats_like_python(in_kernel(bits))


class TestLongCsv:
    # SHA-256 of the table below as write_long_csv writes it.  The table is
    # built from splitmix64 bit patterns with integer operations only, so no
    # libm is involved, and every CI leg (oldest and newest numpy) checks it.
    DIGEST = "291bfab120151fcabb0386fbabe1da5d00d41af7f366369c3baa93166583ae29"

    @staticmethod
    def table():
        n_paths, n_nodes = 64, 33
        bits = splitmix_bits(3 * n_paths * n_nodes, stream=2).reshape(3, n_paths, n_nodes)
        raw = bits[0].view(np.float64)
        kernel = in_range(bits[1])
        short = in_range(bits[2] & np.uint64(0xFFFFFFFF00000000))
        edges = np.resize(np.array(SPECIAL + [1e-10, np.nextafter(1e14, 0)]), (n_paths, n_nodes - 1))
        times = np.arange(n_nodes) / 32.0
        return ["raw", "kernel", "short", "edges"], times, [raw, kernel, short, edges]

    def test_bytes_are_pinned(self):
        names, times, columns = self.table()
        out = io.BytesIO()
        n_paths = columns[0].shape[0]
        core.write_long_csv(out, names, times, n_paths, lambda blk: [c[blk] for c in columns])
        text = out.getvalue().decode("ascii")
        assert text == _reference_csv(names, times, columns)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == self.DIGEST

    @pytest.mark.parametrize(
        "n_paths, n_nodes, block_rows, node_block",
        [
            # path ids 0 to 10 004, seven paths per block, 100 blocks per call
            (10_005, 3, 21, 2_100),
            # one path per block, a block shorter than a path, two per call
            (6, 7, 5, 14),
        ],
    )
    def test_shared_columns_match_per_value_format(
        self, monkeypatch, n_paths, n_nodes, block_rows, node_block
    ):
        monkeypatch.setattr(core, "CSV_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(core, "NODE_BLOCK", node_block)
        rng = np.random.default_rng(RNG_SEED)
        times = np.linspace(0.0, 0.75, n_nodes)
        row = rng.standard_normal(n_nodes)
        own = 100.0 * rng.standard_normal((n_paths, n_nodes))
        # below the kernel's range: one cell of the last block alone holds
        # Python's text, in words 1-6
        own[-1, 1] = -2.5e-7
        assert np.flatnonzero(np.abs(own) < 1e-4).tolist() == [own.size - n_nodes + 1]
        columns = [
            own,
            np.broadcast_to(row, (n_paths, n_nodes)),  # per node, path stride 0
            np.broadcast_to(-1.0 / 3.0, (n_paths, n_nodes)),  # strides (0, 0)
            np.broadcast_to(row[1:], (n_paths, n_nodes - 1)),  # shared, one node short
        ]
        assert [c.strides[0] for c in columns] == [8 * n_nodes, 0, 0, 0]
        names = ["own", "node", "const", "short"]
        out = io.BytesIO()
        core.write_long_csv(out, names, times, n_paths, lambda blk: [c[blk] for c in columns])
        assert out.getvalue().decode("ascii") == _reference_csv(names, times, columns)

    def test_scratch_is_one_block(self):
        # N = 64 steps and seven columns, as the forward artifact: the peak
        # is the same figure at P = 2 000 and P = 8 000.
        class Sink:
            def write(self, data):
                pass

        n_nodes = 65
        times = np.linspace(0.0, 1.0, n_nodes)
        peaks = []
        for n_paths in (2000, 8000):
            rng = np.random.default_rng(RNG_SEED)
            columns = [rng.standard_normal((n_paths, n_nodes)) for _ in range(4)]
            columns.append(rng.standard_normal((n_paths, n_nodes - 1)))
            tracemalloc.start()
            try:
                core.write_long_csv(
                    Sink(), list("abcde"), times, n_paths, lambda blk: [c[blk] for c in columns]
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 4096, peaks
        # and about 135 bytes per cell of one block (CSV_BLOCK_ROWS rows of 7)
        assert peaks[0] < 320 * 7 * core.CSV_BLOCK_ROWS, peaks

