"""Network model: deployment, distances and the radio energy accounting.

Every protocol in this package charges transmit/receive/aggregation costs
against the same first-order radio model: a fixed per-bit electronics cost
plus a d^2 amplifier term on the transmit side.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

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
    bs_pos: tuple[float, float] = (50.0, 175.0)
    initial_energy: float = 0.5  # joules
    radio: RadioModel = field(default_factory=RadioModel)
    seed: int = 1

    def __post_init__(self):
        check_range("n_nodes", self.n_nodes, 1)
        check_range("width", self.arena[0], 0.0, strict=True)
        check_range("height", self.arena[1], 0.0, strict=True)
        check_range("bs_x", self.bs_pos[0])
        check_range("bs_y", self.bs_pos[1])
        check_range("initial_energy", self.initial_energy, 0.0, strict=True)
        check_range("seed", self.seed, 0)
        # no message travels farther than across the arena or from one of its
        # corners to the base station; a sum of n such squared distances (a
        # HEED cost, say) must stay finite
        (bx, by), n = self.bs_pos, self.n_nodes
        reach = max(self.diagonal, *(math.hypot(x - bx, y - by)
                                     for x in (0.0, self.arena[0]) for y in (0.0, self.arena[1])))
        check_range("n_nodes times the squared range of a message", n * reach * reach)
        # below the normal range the joins' dx*dx + dy*dy lose their order, and
        # each member would join the lowest head row
        w, h = self.arena
        check_range("the arena's squared diagonal", w * w + h * h, sys.float_info.min)
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

    @cached_property
    def message_costs(self) -> tuple[float, ...]:
        """The ledger's costs, once per config: elec and amp for a header,
        elec and amp for a data message, one signal's aggregation and an
        advert across the diagonal, in the model's functions' association."""
        r = self.radio
        return (rx_energy(r, r.header_bits), r.e_amp * r.header_bits,
                rx_energy(r, r.data_bits), r.e_amp * r.data_bits,
                aggregate_energy(r, r.data_bits, 1), tx_energy(r, r.header_bits, self.diagonal))


def euclidean_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Plane distance between two (x, y) points, in meters."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) block of dx*dx + dy*dy between the rows of two (n, 2)
    arrays, built in place in that order: every formation's "nearest" and "in
    range" read it as it is, and only EECS's cost takes its ``np.sqrt``. Each
    block first takes b's coordinates, which are then subtracted from a's in place,
    a scalar per row: the broadcast a - b, bit for bit, and faster from about 60 x 60."""
    d2, dy = np.empty((len(a), len(b))), np.empty((len(a), len(b)))
    d2[...], dy[...] = b[:, 0], b[:, 1]
    np.subtract(a[:, 0, None], d2, out=d2)
    d2 *= d2
    np.subtract(a[:, 1, None], dy, out=dy)
    dy *= dy
    d2 += dy
    return d2


def deploy_nodes(config: NetworkConfig, rng: np.random.Generator | None = None) -> np.ndarray:
    """Scatter n_nodes uniformly over the arena; returns the (n, 2) positions.

    Positions come from ``rng`` when given, otherwise from a fresh generator
    seeded with ``config.seed``; equal seeds give bit-identical layouts.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    width, height = config.arena
    xs = rng.uniform(0.0, width, config.n_nodes)
    ys = rng.uniform(0.0, height, config.n_nodes)
    return np.column_stack((xs, ys))


def tx_energy(radio: RadioModel, bits: int, d: float) -> float:
    """Energy to transmit ``bits`` over distance ``d``: electronics + d^2 amplifier."""
    return radio.e_elec * bits + radio.e_amp * bits * d * d


def rx_energy(radio: RadioModel, bits: int) -> float:
    """Energy to receive ``bits``; distance-independent."""
    return radio.e_elec * bits


def aggregate_energy(radio: RadioModel, bits: int, n_signals: int) -> float:
    """Energy for a cluster head to fuse ``n_signals`` messages of ``bits`` each."""
    return radio.e_da * bits * n_signals
