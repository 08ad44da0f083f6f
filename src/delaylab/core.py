"""Shared domain types for delay-aware stochastic control.

The state of a controlled diffusion with memory is summarized by three
coordinates at each time t:

    x  = X(t)                         current state
    x1 = ∫_{-δ}^{0} e^{λτ} X(t+τ) dτ  exponentially weighted moving average
    x2 = X(t − δ)                     pointwise delayed state

This module holds the containers shared by the simulation, verification,
and closed-form layers: delay parameters, the sampled initial segment with
its moving average x1(s), structured model coefficients, feedback policies,
and the simulation configuration.  It also owns the splitmix64
counter hash behind the per-path seeds and Brownian increments, so that
every path is reproducible in isolation, the long-format CSV writer
shared by the forward, backward and adjoint artifacts (with the numpy
kernel that writes its exact '%.17g' text a block at a time), and the
node-row blocks over which the ensemble checks walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import BinaryIO, Callable, Sequence

import numpy as np

Array = np.ndarray

# np.trapz was renamed to np.trapezoid in numpy 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


class DelayLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DelayLabError):
    """An evaluation was requested outside the mathematical domain."""


class ConfigError(DelayLabError):
    """A configuration value is malformed or inconsistent."""


class SimulationDivergedError(DelayLabError):
    """The simulated state left the finite range.

    Attributes
    ----------
    step : index of the time step at which divergence was detected.
    n_bad : number of paths that diverged at that step.
    """

    def __init__(self, step: int, n_bad: int = 1):
        super().__init__(
            f"simulation diverged at step {step} on {n_bad} path(s)"
        )
        self.step = step
        self.n_bad = n_bad


def nan_max(*values: float) -> float:
    """max(values), or NaN when any value is NaN.

    Python's max keeps its first argument against a NaN, so a fold of check
    residuals would report the worst finite one when a residual could not be
    evaluated.  On finite values this is max itself, bit for bit.
    """
    return math.nan if any(math.isnan(v) for v in values) else max(values)


# ---------------------------------------------------------------------------
# Delay parameters
# ---------------------------------------------------------------------------


def require_finite(record) -> None:
    """ConfigError unless each number a dataclass record was built with is
    finite (a field left as None is not checked): NaN fails no range check
    written as a comparison, so the records check this first."""
    for f in fields(record):
        value = getattr(record, f.name) if f.init else None
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Delay and horizon parameters shared by every model.

    Parameters
    ----------
    lam : decay rate λ ≥ 0 of the moving-average weight e^{λτ}
    delta : delay length δ ≥ 0
    horizon_T : terminal time T
    start_s : initial time s, with s < T

    All four must be finite, else ConfigError.
    """

    lam: float
    delta: float
    horizon_T: float
    start_s: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.lam < 0.0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.delta < 0.0:
            raise ConfigError(f"delta must be >= 0, got {self.delta}")
        if not self.start_s < self.horizon_T:
            raise ConfigError(
                f"need start_s < horizon_T, got [{self.start_s}, {self.horizon_T}]"
            )

    @property
    def e_minus(self) -> float:
        """e^{-λδ}, the weight of the pointwise delay term."""
        return math.exp(-self.lam * self.delta)

    @property
    def e_plus(self) -> float:
        """e^{+λδ}, the factor appearing in the compatibility conditions."""
        return math.exp(self.lam * self.delta)


# ---------------------------------------------------------------------------
# Initial segment
# ---------------------------------------------------------------------------


def lag_steps(delta: float, step_h: float) -> int:
    """Number of grid steps spanned by the delay; raises if h does not divide δ."""
    if step_h <= 0.0:
        raise ConfigError(f"step must be > 0, got {step_h}")
    n = int(round(delta / step_h))
    if abs(n * step_h - delta) > 1e-9 * max(1.0, delta):
        raise ConfigError(
            f"step {step_h} does not divide delay {delta} evenly"
        )
    return n


def initial_segment(
    path: Callable[[float], float], delta: float, lam: float, step_h: float
) -> tuple[Array, float]:
    """The initial segment φ(τ), τ ∈ [−δ, 0], sampled onto the grid, and x1(s).

    Returns the round(δ/h) + 1 samples, oldest first (samples[0] = φ(−δ) is
    the first x2, samples[-1] = φ(0) the first x), and the trapezoidal
    approximation of x1(s) = ∫_{-δ}^{0} e^{λτ} φ(τ) dτ over them.  The step
    must divide δ exactly (up to rounding noise); otherwise the pointwise
    delay X(t − δ) would fall between grid nodes.  A zero delay leaves one
    sample, whose trapezoid is an empty sum: x1(s) is 0 exactly.  A lag of
    more samples than numpy can index is a ConfigError.
    """
    n = lag_steps(delta, step_h)
    if n >= np.iinfo(np.intp).max:
        raise ConfigError(f"a delay of {n} steps has more samples than numpy can index")
    tau = -delta + step_h * np.arange(n + 1)
    tau[-1] = 0.0
    samples = np.array([float(path(float(t))) for t in tau])
    weights = np.exp(lam * np.linspace(-step_h * n, 0.0, n + 1))
    return samples, float(_trapezoid(weights * samples, dx=step_h))


# ---------------------------------------------------------------------------
# Per-path seeding
# ---------------------------------------------------------------------------

SPLITMIX64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64_mix(z):
    """The splitmix64 finalizer, a bijection on 64-bit words.

    Word j of the splitmix64 stream seeded at s is splitmix64_mix(s + γ·(j+1))
    with γ = SPLITMIX64_GAMMA (Steele, Lea & Flood, OOPSLA 2014), so any word
    can be computed without the ones before it.  Takes a scalar or an array
    of uint64 and returns a new uint64 array of the same shape.
    """
    z = np.array(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= _SM_M1
        z ^= z >> np.uint64(27)
        z *= _SM_M2
        z ^= z >> np.uint64(31)
    return z


def derive_path_seed(master_seed: int, path_index):
    """Derive a 64-bit per-path seed from a master seed and a path index.

    The seed is word `index` of the splitmix64 stream seeded at the master
    seed.  Both maps are bijections on 64-bit integers, so distinct indices
    under one master seed can never collide.  Accepts a scalar index or an
    integer array.
    """
    idx = np.asarray(path_index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF) + SPLITMIX64_GAMMA * (idx + np.uint64(1))
    z = splitmix64_mix(z)
    if z.ndim == 0:
        return int(z)
    return z


# ---------------------------------------------------------------------------
# Controls, models, policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlBox:
    """Axis-aligned box of admissible control vectors."""

    lower: Array
    upper: Array

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, float)))
        if self.lower.ndim != 1 or self.lower.size == 0:
            raise ConfigError(
                f"control box bounds must be non-empty flat lists, got shape {self.lower.shape}"
            )
        if self.lower.shape != self.upper.shape:
            raise ConfigError("lower/upper must have matching shapes")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ConfigError("control box bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ConfigError("lower bound exceeds upper bound")

    @property
    def n_controls(self) -> int:
        return self.lower.size

    def clamp(self, u: Array) -> Array:
        u = np.asarray(u, float)
        lo = self.lower.reshape((-1,) + (1,) * (u.ndim - 1))
        hi = self.upper.reshape((-1,) + (1,) * (u.ndim - 1))
        return np.clip(u, lo, hi)

    def axis_grid(self, i: int, n: int) -> Array:
        """Uniform grid of n nodes along control coordinate i."""
        return np.linspace(self.lower[i], self.upper[i], n)


@dataclass
class StructuredModel:
    """Controlled dynamics with coefficients affine in the pointwise delay.

    Forward drift and generator split as

        b(t, x, x1, x2, u)        = b1(t, x, x1, u) + b2(t, x, x1, u) · x2
        f(t, x, x1, x2, y, z, u)  = f1(t, x, x1, y, z, u) + f2(t, x, x1, y, z, u) · x2

    while the diffusion sigma(t, x, x1, u) carries no x2 dependence.  phi(x, x1)
    is the terminal payoff of the backward equation.  All coefficient callables
    must broadcast over numpy arrays; the control u is passed as an array whose
    leading axis indexes control coordinates.

    Optional f_y / f_z are analytic partial derivatives of the full generator
    in the (y, z) slots with signature (t, x, x1, x2, y, z, u).  Only the
    maximum-principle layer (pmp) reads them, and a model must supply both
    to reach it.
    """

    params: ModelParams
    b1: Callable
    b2: Callable
    sigma: Callable
    f1: Callable
    f2: Callable
    phi: Callable
    control_set: ControlBox
    f_y: Callable | None = None
    f_z: Callable | None = None

    def drift(self, t, x, x1, x2, u):
        return self.b1(t, x, x1, u) + self.b2(t, x, x1, u) * x2

    def x1_drift(self, x, x1, x2):
        """Drift x − e^{-λδ}x2 − λx1 of the moving average X1."""
        return x - self.params.e_minus * x2 - self.params.lam * x1

    def generator(self, t, x, x1, x2, y, z, u):
        return self.f1(t, x, x1, y, z, u) + self.f2(t, x, x1, y, z, u) * x2


@dataclass
class FeedbackPolicy:
    """Deterministic feedback control u(t, x, x1).

    evaluate(t, x, x1) returns an array whose leading axis has length
    n_controls and whose trailing shape broadcasts with x.
    """

    evaluate: Callable[[float, Array, Array], Array]
    n_controls: int = 1
    label: str = "policy"

    def at(self, t: float, x, x1) -> Array:
        """The controls at (t, x, x1) as a float (n_controls, *x.shape) array.

        t is a float or an array that broadcasts with x.

        Callers only read the result, so a float array that evaluate returns
        in that shape is passed on without a copy.
        """
        x = np.asarray(x, float)
        u = np.asarray(self.evaluate(t, x, np.asarray(x1, float)), float)
        target = (self.n_controls,) + x.shape
        if u.shape == target:
            return u
        return np.broadcast_to(u, target).astype(float)


# ---------------------------------------------------------------------------
# Simulation configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Discretization and sampling parameters for forward/backward passes."""

    n_steps: int
    n_paths: int
    master_seed: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths}")
        # derive_path_seed reads the seed as a 64-bit word, so a seed outside
        # [0, 2^64) would run as another seed while the report records it.
        if not 0 <= self.master_seed < 1 << 64:
            raise ConfigError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")

    def step_size(self, params: ModelParams) -> float:
        return (params.horizon_T - params.start_s) / self.n_steps

    def validate_grid(self, params: ModelParams) -> int:
        """Check that the step divides δ; returns the lag in steps."""
        return lag_steps(params.delta, self.step_size(params))


# ---------------------------------------------------------------------------
# Long-format CSV artifacts
# ---------------------------------------------------------------------------

# Rows formatted per write in write_long_csv; bounds the block's scratch
# arrays next to the columns themselves.
CSV_BLOCK_ROWS = 1 << 11

# '%.17g' without a Python format per value.  A finite |v| in [1e-4, 1e6) is
# m·2^e with an integer m < 2^53.  Its 17 significant digits are the integer
# N = round(|v|·10^k) in [10^16, 10^17), where k = 16 − d and
# d = floor(log10|v|), so k lies in [11, 20].  N is m·5^k·2^(e+k) rounded
# half to even: m·5^k is an exact 128-bit product of 32-bit limbs, and the
# shift s = −(e+k) lies in [1, 63].  N never rounds up to 10^17: that takes
# a |v| less than 5e-18·10^(d+1) below 10^(d+1), and no float64 in the range
# is that close below a power of ten (the CSV text tests check each one).
# Each value becomes a cell of seven 4-byte words, NUL where unused, which
# _G17_WORDS holds:
#
#   0     the separator before the cell, the sign, integer digits 1-2 of 6
#   1     integer digits 3-6, leading zeros blank
#   2     the decimal point, blank when no fraction digit is left
#   3-6   16 fraction digits in groups of four, trailing zeros blank
#
# When −4 <= d <= −1, word 0 ends in "0." instead, word 1 holds −d − 1 zeros
# and the first digit, and words 3-6 the other 16 digits.  ±0 is a cell of
# its own; every other value (NaN, ±inf, subnormals, |v| < 1e-4 or >= 1e6)
# is formatted by Python into words 1-6, which hold the 24 bytes of the
# longest, -2.2250738585072014e-308.
#
# write_long_csv runs this kernel once per columns_of call for a column of
# path stride 0 (t among them), and block by block for the others; a path
# id is Python's text of the integer after a newline, in five words.  A
# block of rows hands bytes.translate only the (column, word) planes that
# some of its cells use.

_U = np.uint64
_G17_LO, _G17_HI = 1e-4, 1e6
# Word-table offsets: four-digit groups plain, with leading zeros blank but
# 0 written as "0", with trailing zeros blank, and word 0 at
# 200·(d < 0) + 100·sign + digits 1-2.
_LEAD1, _TRAIL, _HEAD = (_U(10_000 * i) for i in range(1, 4))


def _g17_tables() -> tuple[Array, Array]:
    """The word table, and per k the index offsets of words 0, 1 and 2."""
    group = np.arange(10_000, dtype=np.uint16)[:, np.newaxis]
    tens = np.array([1000, 100, 10, 1], np.uint16)
    plain = (group // tens % 10 + ord("0")).astype(np.uint8)
    # digit i of four is a leading zero when group < 10^(3-i), a trailing
    # one when group is a multiple of 10^(4-i)
    lead = plain * (group >= tens)
    lead1 = lead.copy()
    lead1[0, 3] = ord("0")
    trail = plain * (group % (10 * tens) > 0)
    # [d < 0, sign, digits 1-2]: ",", "-" and the digits, or ",0." and ",-0."
    head = np.zeros((2, 2, 100, 4), np.uint8)
    head[:, :, :, 0] = ord(",")
    head[:, 1, :, 1] = ord("-")
    head[0, :, :, 2:] = lead[:100, 2:]
    head[1, 0, :, 1:3] = np.frombuffer(b"0.", np.uint8)
    head[1, 1, :, 2:] = np.frombuffer(b"0.", np.uint8)
    # Word 2 is by_k[2] + (a fraction digit is left): "" or "." from
    # base + 1, always blank from base.  When d < 0 word 1 is
    # by_k[1] + _LEAD1 + the first digit c: the zeros, then c.
    literals = [b"", b"", b"."]
    by_k = np.zeros((3, 21), np.uint64)
    base = 3 * 10_000 + head.size // 4
    by_k[2] = base + 1
    for k in range(17, 21):
        by_k[0, k] = 200
        by_k[1, k] = base + len(literals) - int(_LEAD1)
        by_k[2, k] = base
        literals += [b"0" * (k - 17) + bytes([ord("0") + c]) for c in range(10)]
    words = np.concatenate(
        [
            np.ascontiguousarray(t).view(np.uint32).ravel()
            for t in (plain, lead1, trail, head)
        ]
        + [np.frombuffer(b"".join(t.ljust(4, b"\0") for t in literals), np.uint32)]
    )
    return words, by_k


_G17_WORDS, _G17_BY_K = _g17_tables()
# k from the biased binary exponent B of |v|: exact for the smallest |v| with
# that exponent; a larger one at or above 10^(17 − k) takes k − 1
_G17_K_OF_B = np.clip(
    16 - np.floor((np.arange(2048) - 1023) * math.log10(2.0)), 11, 20
).astype(np.uint64)
_G17_POW10_ABOVE = np.array([float("1e%d" % (17 - k)) for k in range(21)])
_POW5 = np.array([5**k for k in range(21)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(17)], dtype=np.uint64)


def _scaled(bits: Array, k: Array) -> Array:
    """|v|·10^k rounded half to even, for the bits of |v|."""
    m = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    s = (_U(1075) - k) - (bits >> _U(52))
    p = _POW5.take(k.view(np.intp))
    low = _U(0xFFFFFFFF)
    ml, mh, pl, ph = m & low, m >> _U(32), p & low, p >> _U(32)
    ll = ml * pl
    mid = mh * pl + ml * ph
    lo = ll + (mid << _U(32))
    hi = mh * ph + (mid >> _U(32)) + (lo < ll)
    left = _U(64) - s
    q = (hi << left) | (lo >> s)
    # The dropped bits, moved to the top of a word, exceed one half when
    # the word is above 2^63; a tie rounds up only from an odd q.
    return q + (((lo << left) | (q & _U(1))) > _U(1 << 63))


def _g17_cells(values: Array) -> Array:
    """The CSV cells of values as a (7, *values.shape) uint32 array.

    Each cell is a comma, then '%.17g' % v, in the seven-word layout above
    with NUL in every unused byte.
    """
    v = np.ascontiguousarray(values, np.float64)
    a = np.abs(v)
    fast = (a >= _G17_LO) & (a < _G17_HI)
    other = ~fast & (v != 0.0)
    np.copyto(a, 1.0, where=~fast)
    bits = a.view(np.uint64)
    # d is exact: every float64 power of ten from 1e-4 up is at or above
    # the power itself, so |v|·10^k lies in [10^16, 10^17)
    k = _G17_K_OF_B.take((bits >> _U(52)).view(np.intp))
    k -= a >= _G17_POW10_ABOVE.take(k.view(np.intp))
    n = _scaled(bits, k)
    # the digits before the point (the first digit when d < 0) and the
    # fraction as a 16-digit integer
    point = np.minimum(k, _U(16))
    scale = _POW10.take(point.view(np.intp))
    whole = n // scale
    frac = (n - whole * scale) * _POW10.take((_U(16) - point).view(np.intp))
    whole *= v != 0.0
    sign = v.view(np.uint64) >> _U(63)
    sign[other] = 0
    by_k = _G17_BY_K.take(k.view(np.intp), axis=1)
    cells = np.empty((7,) + v.shape, np.uint32)

    def put(word, index):
        _G17_WORDS.take(index.view(np.intp), out=cells[word])

    g = whole // _U(10**4)
    put(0, _HEAD + _U(100) * sign + g + by_k[0])
    put(1, whole - g * _U(10**4) + _LEAD1 * (g == _U(0)) + by_k[1])
    put(2, by_k[2] + (frac != _U(0)))
    for word, p in ((3, 10**12), (4, 10**8), (5, 10**4)):
        g = frac // _U(p)
        frac -= g * _U(p)
        put(word, g + _TRAIL * (frac == _U(0)))
    put(6, frac + _TRAIL)
    if other.any():
        text = np.array(["%.17g" % x for x in v[other].tolist()], dtype="S24")
        cells[1:, other] = text.view(np.uint32).reshape(-1, 6).T
    return cells


def _column_cells(columns: Sequence[Array], shape: tuple[int, int]) -> tuple[Array, Array]:
    """The cells of columns of at most shape (rows, nodes) values, each cell
    after a comma and a column blank from its last node on, as a
    (7, len(columns), rows, nodes) array, and whether some cell of column i
    uses word w, as a (7, len(columns)) array."""
    table = np.zeros((len(columns),) + shape)
    for i, c in enumerate(columns):
        table[i, :, : c.shape[1]] = c
    cells = _g17_cells(table)
    for i, c in enumerate(columns):
        cells[1:, i, :, c.shape[1] :] = 0  # blank: the separator alone
    # a max over the contiguous last axis; over a middle axis it costs far more
    return cells, cells.reshape(len(cells), len(columns), shape[0] * shape[1]).max(axis=2) != 0


def _shared_planes(row: Array, shape: tuple[int, int]) -> list[Array]:
    """The cells of a row of values that every path shares, blank from node
    row.size on, as one plane of shape (rows, nodes) for each word that
    some cell uses."""
    cells, used = _column_cells([row[np.newaxis]], (1, shape[1]))
    return [np.broadcast_to(cells[w, 0, 0], shape) for w in np.flatnonzero(used[:, 0])]


def write_long_csv(
    stream: BinaryIO,
    names: Sequence[str],
    times: Array,
    n_paths: int,
    columns_of: Callable[[slice], Sequence[Array]],
) -> None:
    """Write columns in long format, path,t,<names>: one row per path and
    node, path by path, as ASCII bytes to a binary stream.

    columns_of(paths) gives the columns of the paths in that slice, each a
    (n, n_nodes) array, so a writer may compute them block by block; it is
    asked for about NODE_BLOCK values of each column at a time.  Every
    value is written as '%.17g' % v, the same text as format(float(v),
    '.17g'), so the file round-trips every float64 and has the same bytes on
    any numpy.  A column one node short (the Brownian increments) is blank
    at the terminal node.

    _g17_cells turns values into fixed-width cells with NUL holes, and
    bytes.translate drops the holes.  A cell that repeats is formatted once:
    a column of path stride 0, t among them, once per columns_of call; each
    path id, the same at every node, once per block of CSV_BLOCK_ROWS rows.
    The other columns are formatted block by block.  Each block stacks only
    the (column, word) planes that some of its cells use, so translate reads
    no word that is NUL in every row of the block.  Each cell starts with
    the separator before it, so the header goes out without its newline and
    the last row's newline follows the last block.
    """
    n_nodes = times.size
    stream.write(",".join(["path", "t", *names]).encode("ascii"))
    paths_per_block = max(1, CSV_BLOCK_ROWS // n_nodes)
    # a whole number of blocks per call of columns_of
    paths_per_call = paths_per_block * max(1, NODE_BLOCK // (paths_per_block * n_nodes))
    for first in range(0, n_paths, paths_per_call):
        last = min(first + paths_per_call, n_paths)
        t = np.broadcast_to(times, (last - first, n_nodes))
        columns = [t, *columns_of(slice(first, last))]
        # a column of path stride 0 holds one row for every path; None
        # stands for a column of its own
        layout = [
            _shared_planes(c[0], (paths_per_block, n_nodes)) if c.strides[0] == 0 else None
            for c in columns
        ]
        own = [c for c, planes in zip(columns, layout) if planes is None]
        for start in range(first, last, paths_per_block):
            stop = min(start + paths_per_block, last)
            shape = (stop - start, n_nodes)
            # each path id after a newline, in five words
            ids = np.array([b"\n%d" % i for i in range(start, stop)], "S20").view(np.uint32)
            ids = ids.reshape(shape[0], 5)
            cells, used = _column_cells([c[start - first : stop - first] for c in own], shape)
            planes = [
                np.broadcast_to(ids[:, w, np.newaxis], shape)
                for w in np.flatnonzero(ids.max(axis=0))
            ]
            own_planes = (
                [cells[w, i] for w in np.flatnonzero(used[:, i])] for i in range(len(own))
            )
            for fixed in layout:
                planes += next(own_planes) if fixed is None else [p[: shape[0]] for p in fixed]
            stream.write(np.stack(planes, axis=2).tobytes().translate(None, b"\0"))
    stream.write(b"\n")


# ---------------------------------------------------------------------------
# Node-row blocks
# ---------------------------------------------------------------------------

# Elements per block of node_blocks (512 KiB of float64), so that the
# temporaries of an ensemble check on one block stay in cache.
NODE_BLOCK = 1 << 16


def node_blocks(n_paths: int, n_nodes: int):
    """Consecutive node slices of about NODE_BLOCK // n_paths nodes each.

    For a node-major (n_paths, n_nodes) array x, x[:, blk] is one contiguous
    chunk of the buffer: its transpose holds the rows of nodes blk.
    """
    rows = max(1, NODE_BLOCK // n_paths)
    for start in range(0, n_nodes, rows):
        yield slice(start, min(start + rows, n_nodes))
