"""Network model: nodes, geometry, deployment and the radio energy accounting.

Every protocol in this package charges transmit/receive/aggregation costs
against the same first-order radio model: a fixed per-bit electronics cost
plus a d^2 amplifier term on the transmit side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# rounds_since_ch value meaning "never served"; any value this large keeps a
# fresh node eligible for election under every practical rotation period.
NEVER_CLUSTER_HEAD = 1 << 30


def check_range(name: str, value: float, low: float = -math.inf, *, strict: bool = False):
    """Raise ValueError unless ``value`` is finite and >= ``low`` (> when
    ``strict``). An int that no float can hold counts as not finite."""
    try:
        ok = math.isfinite(value) and (value > low if strict else value >= low)
    except OverflowError:
        ok = False
    if not ok:
        bound = f" and {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")


@dataclass(frozen=True)
class Position:
    """A point in the deployment plane, in meters."""

    x: float
    y: float


@dataclass
class Node:
    """One sensor node's deployment record; a run keeps its state in ``Geometry``."""

    id: int
    pos: Position
    energy: float
    rounds_since_ch: int = NEVER_CLUSTER_HEAD


@dataclass(frozen=True)
class RadioModel:
    """Per-bit energy constants of the radio and aggregation hardware.

    e_elec applies to both transmit and receive electronics, e_amp to the
    transmit amplifier (scaled by distance squared), e_da to aggregating one
    input signal. Message sizes are carried here so callers charge data and
    control traffic consistently.
    """

    e_elec: float = 50e-9  # J/bit
    e_amp: float = 100e-12  # J/bit/m^2
    e_da: float = 5e-9  # J/bit per aggregated signal
    data_bits: int = 4000  # 500-byte data message
    header_bits: int = 200  # 25-byte header / control message

    def __post_init__(self):
        for name in ("e_elec", "e_amp", "e_da", "data_bits", "header_bits"):
            check_range(name, getattr(self, name), 0.0)
        if not 0 < self.header_bits < self.data_bits:
            raise ValueError("require data_bits > header_bits > 0")


@dataclass(frozen=True)
class NetworkConfig:
    """Deployment scenario: arena, population, base station and energy budget."""

    n_nodes: int = 100
    arena: tuple[float, float] = (100.0, 100.0)
    bs_pos: Position = field(default_factory=lambda: Position(50.0, 175.0))
    initial_energy: float = 0.5  # joules
    radio: RadioModel = field(default_factory=RadioModel)
    seed: int = 1

    def __post_init__(self):
        check_range("n_nodes", self.n_nodes, 1)
        check_range("width", self.arena[0], 0.0, strict=True)
        check_range("height", self.arena[1], 0.0, strict=True)
        check_range("bs_x", self.bs_pos.x)
        check_range("bs_y", self.bs_pos.y)
        check_range("initial_energy", self.initial_energy, 0.0, strict=True)
        check_range("seed", self.seed, 0)
        # no message travels farther than across the arena or from one of its
        # corners to the base station; a sum of n such squared distances (a
        # HEED cost, say) must stay finite
        bs, n = self.bs_pos, self.n_nodes
        reach = max(self.diagonal, *(math.hypot(x - bs.x, y - bs.y)
                                     for x in (0.0, self.arena[0]) for y in (0.0, self.arena[1])))
        check_range("n_nodes times the squared range of a message", n * reach * reach)
        # per round, each node sends at most two messages and hears at most n
        # adverts, the heads hear two messages per member and fuse at most n
        # signals in all; the sum of those charges must stay finite
        r = self.radio
        check_range("the most energy a round can charge",
                    2 * n * tx_energy(r, r.data_bits, reach)
                    + n * (n + 2) * rx_energy(r, r.data_bits)
                    + aggregate_energy(r, r.data_bits, n))

    @property
    def diagonal(self) -> float:
        """Arena diagonal, the broadcast range that reaches every node."""
        return math.hypot(self.arena[0], self.arena[1])


def euclidean_distance(a: Position, b: Position) -> float:
    """Plane distance between two positions, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) block of dx*dx + dy*dy between the rows of two (n, 2)
    arrays, built in place in that order. Its square root is bit-equal to
    ``np.sqrt(dx * dx + dy * dy)``, not to ``hypot``."""
    d2 = a[:, 0, None] - b[:, 0]
    d2 *= d2
    dy = a[:, 1, None] - b[:, 1]
    dy *= dy
    d2 += dy
    return d2


_VELTKAMP = 134217729.0  # 2**27 + 1, splits a double into two 26-bit halves


def _split(x):
    t = x * _VELTKAMP
    hi = t - (t - x)
    return hi, x - hi


def _add(csum, frac, x):
    """Compensated ``csum + x``: the new sum, and ``frac`` plus its rounding error."""
    total = csum + x
    return total, frac + ((csum - total) + x)


def hypot(dx, dy) -> np.ndarray:
    """Elementwise ``math.hypot`` of finite arrays, equal to it bit for bit.

    A step-by-step copy of ``vector_norm`` in CPython 3.10/3.11's
    ``Modules/mathmodule.c`` for two coordinates: power-of-two scaling from
    ``frexp``, lossless squares through a Veltkamp/Dekker split, compensated
    sums, one differential correction, the zero case, and the branch that
    divides by the larger magnitude when it is below 2**-1023. ``np.hypot``
    differs in about 6 200 of every 10**6 pairs; tests/test_exactness.py pins this.
    """
    dx, dy = np.asarray(dx, dtype=float), np.asarray(dy, dtype=float)
    big = np.maximum(np.abs(dx), np.abs(dy))
    e = np.frexp(big)[1]
    tiny = e < -1023  # ldexp(1.0, -e) would overflow
    special = tiny | (big == 0.0)
    rare = bool(special.any())
    scale = np.ldexp(1.0, np.where(tiny, 0, -e) if rare else -e)
    csum, frac1, frac2, frac3 = 1.0, 0.0, 0.0, 0.0
    for v in (dx, dy):
        hi, lo = _split(v * scale)
        csum, frac1 = _add(csum, frac1, hi * hi)
        csum, frac2 = _add(csum, frac2, 2.0 * hi * lo)
        frac3 = frac3 + lo * lo
    h = np.sqrt(csum - 1.0 + (frac1 + frac2 + frac3))
    if rare:
        h = np.where(special, 1.0, h)  # placeholder, so the correction stays finite
    hi, lo = _split(h)
    csum, frac1 = _add(csum, frac1, -hi * hi)
    csum, frac2 = _add(csum, frac2, -2.0 * hi * lo)
    csum, frac3 = _add(csum, frac3, -lo * lo)
    out = (h + (csum - 1.0 + (frac1 + frac2 + frac3)) / (2.0 * h)) / scale
    if rare:
        csum, frac1 = 1.0, 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            for v in (dx, dy):
                x = v / big
                csum, frac1 = _add(csum, frac1, x * x)
            small = big * np.sqrt(csum - 1.0 + frac1)
        out = np.where(tiny, small, np.where(big == 0.0, 0.0, out))
    return out


def deploy_nodes(config: NetworkConfig, rng: np.random.Generator | None = None) -> list[Node]:
    """Scatter n_nodes uniformly over the arena.

    Positions come from ``rng`` when given, otherwise from a fresh generator
    seeded with ``config.seed``; equal seeds give bit-identical layouts.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    width, height = config.arena
    xs = rng.uniform(0.0, width, config.n_nodes)
    ys = rng.uniform(0.0, height, config.n_nodes)
    return [
        Node(id=i, pos=Position(float(xs[i]), float(ys[i])), energy=config.initial_energy)
        for i in range(config.n_nodes)
    ]


def tx_energy(radio: RadioModel, bits: int, d: float) -> float:
    """Energy to transmit ``bits`` over distance ``d``: electronics + d^2 amplifier."""
    return radio.e_elec * bits + radio.e_amp * bits * d * d


def rx_energy(radio: RadioModel, bits: int) -> float:
    """Energy to receive ``bits``; distance-independent."""
    return radio.e_elec * bits


def aggregate_energy(radio: RadioModel, bits: int, n_signals: int) -> float:
    """Energy for a cluster head to fuse ``n_signals`` messages of ``bits`` each."""
    return radio.e_da * bits * n_signals
