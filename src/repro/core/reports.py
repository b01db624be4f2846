"""Report types: what $heriff tells the user and stores for analysis.

A :class:`PriceCheckReport` is the unit of both datasets in the paper --
one crowd-triggered check, or one crawler product-day.  It carries the
per-vantage-point :class:`VantageObservation` list plus the derived
statistics the figures are built from: min/max USD price, max/min ratio,
and whether the variation survives the conservative currency guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = ["VantageObservation", "PriceCheckReport", "require_usd"]


def require_usd(ok: bool, usd: Optional[float]) -> None:
    """Raise ``ValueError`` unless a successful observation carries a
    USD value that is not negative.

    Every observation obeys this rule: a :class:`VantageObservation`
    checks it on construction, and :mod:`repro.io` checks it when it
    decodes a rows-layout file straight into a table's columns.
    """
    if ok and (usd is None or usd < 0):
        raise ValueError("a successful observation needs a USD value")


@dataclass(frozen=True)
class VantageObservation:
    """One vantage point's view of one product at one instant."""

    vantage: str  # vantage point name, e.g. "Finland - Tampere"
    country_code: str
    city: str
    ok: bool
    raw_text: str = ""
    amount: Optional[float] = None  # in display currency
    currency: Optional[str] = None  # ISO code of display currency
    usd: Optional[float] = None  # converted at the day's mid rate
    method: str = ""  # extraction method used
    error: str = ""

    def __post_init__(self) -> None:
        require_usd(self.ok, self.usd)


@dataclass
class PriceCheckReport:
    """The outcome of fanning one URI out to the vantage fleet."""

    check_id: str
    url: str
    domain: str
    day_index: int
    timestamp: float
    observations: list[VantageObservation] = field(default_factory=list)
    #: Largest ratio that currency translation alone could explain, given
    #: the currencies seen and the day's rate extremes.
    guard_threshold: float = 1.0
    #: Who asked (crowd user id or "crawler"), for dataset bookkeeping.
    origin: str = "crawler"

    # ------------------------------------------------------------------
    def valid_observations(self) -> list[VantageObservation]:
        """The observations that produced a usable USD price.

        A free product is a price too: the test is ``usd is not None``,
        not truthiness, so a legitimate ``usd == 0.0`` observation is
        never silently dropped.
        """
        return [obs for obs in self.observations if obs.ok and obs.usd is not None]

    @property
    def prices_usd(self) -> list[float]:
        return [obs.usd for obs in self.valid_observations()]  # type: ignore[misc]

    @property
    def min_usd(self) -> Optional[float]:
        prices = self.prices_usd
        return min(prices) if prices else None

    @property
    def max_usd(self) -> Optional[float]:
        prices = self.prices_usd
        return max(prices) if prices else None

    @property
    def ratio(self) -> Optional[float]:
        """max/min observed USD price, the paper's magnitude metric."""
        prices = self.prices_usd
        if len(prices) < 2:
            return None
        low = min(prices)
        if low <= 0:
            return None
        return max(prices) / low

    @property
    def has_variation(self) -> bool:
        """True when the spread strictly exceeds the currency guard.

        This is the paper's detection rule: "we keep only products whose
        price variation is strictly greater than the maximum gap that can
        exist given the two extreme exchange rates".
        """
        ratio = self.ratio
        return ratio is not None and ratio > self.guard_threshold

    def observation_for(self, vantage: str) -> Optional[VantageObservation]:
        """The named vantage point's observation, or None."""
        for obs in self.observations:
            if obs.vantage == vantage:
                return obs
        return None

    def ratios_by_vantage(self) -> dict[str, float]:
        """vantage name -> price(vantage)/min price, for Fig. 6/7-style plots."""
        low = self.min_usd
        if low is None or low <= 0:
            return {}
        return {
            obs.vantage: (obs.usd or 0.0) / low
            for obs in self.valid_observations()
        }

    def summary_line(self) -> str:
        """A one-line human rendering (used by examples and the CLI)."""
        ratio = self.ratio
        if ratio is None:
            return f"{self.url}: not enough data"
        flag = "VARIATION" if self.has_variation else "uniform"
        return (
            f"{self.url}: {len(self.valid_observations())} points, "
            f"${self.min_usd:.2f}-${self.max_usd:.2f} "
            f"(x{ratio:.3f}, guard x{self.guard_threshold:.3f}) [{flag}]"
        )
