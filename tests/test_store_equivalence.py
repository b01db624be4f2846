"""Golden values for the figure aggregations.

Each aggregation in ``repro.analysis`` (extent, ratios, locations,
longitudinal, products, cleaning) once had two bodies: a walk over
``PriceCheckReport`` dataclasses and a columnar kernel over a
:class:`~repro.store.ReportTable`.  Before the list walks were deleted,
every case x keyword set below was run through them and the sha256 of a
canonical ``repr`` of the answer was pinned in
``tests/data/analysis_pins.json``.  The kernels must reproduce those pins
from a table slice *and* from a plain report list (which
:func:`~repro.store.as_table_slice` appends to a fresh table).  The pins
are the reference: never regenerate them from the kernels.

Property-style: a deterministic pseudo-random generator produces datasets
mixing multiple domains/products/days/currencies, failed observations,
``usd == 0.0`` edge cases and missing vantages; plus the named edge cases
(empty dataset, all-failed observations, single domain, values on the
rules' boundaries).  The canonical
``repr`` keeps dict key *order* (figure row order, ``most_common``
tie-breaking), sorts sets and the drop counter, and renders cleaned
reports through ``report_to_dict``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.cleaning import (
    CleanResult,
    clean_reports,
    dataset_guard,
    repeatable_products,
)
from repro.analysis.extent import variation_extent
from repro.analysis.locations import (
    finland_profile,
    location_ratio_stats,
    pairwise_grid,
)
from repro.analysis.longitudinal import (
    daily_extent,
    extent_stability,
    product_persistence,
)
from repro.analysis.products import per_vantage_structure, ratio_vs_min_price
from repro.analysis.ratios import (
    domain_ratio_stats,
    domain_ratios,
    domain_variation_counts,
)
from repro.core.reports import PriceCheckReport, VantageObservation
from repro.fx.rates import RateService
from repro.io import report_from_dict, report_to_dict
from repro.store import ReportTable, TableSlice

PINS = json.loads(
    (Path(__file__).parent / "data" / "analysis_pins.json").read_text()
)

VANTAGES = [
    ("USA - Boston", "US", "Boston"),
    ("Finland - Tampere", "FI", "Tampere"),
    ("UK - London", "GB", "London"),
    ("Brazil - Sao Paulo", "BR", "Sao Paulo"),
    ("Germany - Berlin", "DE", "Berlin"),
]
CURRENCIES = ["USD", "EUR", "GBP", "BRL", None]


def synthetic_reports(seed: int, n: int) -> list[PriceCheckReport]:
    rng = random.Random(seed)
    domains = [f"www.shop{d}.example" for d in range(rng.randint(1, 5))]
    reports = []
    for i in range(n):
        domain = rng.choice(domains)
        url = f"http://{domain}/p/{rng.randint(0, 6)}"
        day = rng.randint(150, 155)
        observations = []
        for vantage, country, city in VANTAGES:
            if rng.random() < 0.2:  # missing vantage
                continue
            if rng.random() < 0.15:  # failed fetch/extraction
                observations.append(VantageObservation(
                    vantage=vantage, country_code=country, city=city,
                    ok=False, error=rng.choice(["http 500", "timeout", "no price"]),
                ))
                continue
            usd = rng.choice([0.0, round(rng.uniform(5, 400), 2)])
            observations.append(VantageObservation(
                vantage=vantage, country_code=country, city=city, ok=True,
                raw_text=f"{usd:.2f}", amount=usd if rng.random() < 0.9 else None,
                currency=rng.choice(CURRENCIES), usd=usd, method="selector",
            ))
        reports.append(PriceCheckReport(
            check_id=f"chk{i:07d}",
            url=url,
            domain=domain,
            day_index=day,
            timestamp=day * 86400.0 + i,
            observations=observations,
            guard_threshold=round(rng.uniform(1.0, 1.2), 3),
            origin="crawler",
        ))
    return reports


def copies_and_slice(reports):
    """Two independent inputs over identical data: a plain dataclass list
    and a table slice."""
    # Deep-copy through serialization so in-place guard writes on one
    # input can never leak into the other.
    list_input = [report_from_dict(report_to_dict(r)) for r in reports]
    table = ReportTable()
    table.extend(reports)
    return list_input, TableSlice(table)


EDGE_CASES = {
    "empty": [],
    "all_failed": [
        PriceCheckReport(
            check_id=f"chk{i:07d}", url=f"http://only.example/p/{i}",
            domain="only.example", day_index=1, timestamp=86400.0 + i,
            observations=[VantageObservation(
                vantage=v, country_code=c, city=city, ok=False, error="down",
            ) for v, c, city in VANTAGES],
        )
        for i in range(4)
    ],
    "single_domain": None,  # filled below from the generator
}


def boundary_reports() -> list[PriceCheckReport]:
    """Values on the rules' boundaries: a ratio equal to its guard (no
    variation), a product varying on exactly half its rounds (not
    repeatable at ``min_fraction=0.5``), a vantage reported twice in one
    check (its later price wins)."""
    boston, finland, london = VANTAGES[:3]

    def check(i, product, day, prices, guard):
        return PriceCheckReport(
            check_id=f"chk{i:07d}", url=f"http://tie.example/p/{product}",
            domain="tie.example", day_index=day, timestamp=day * 86400.0 + i,
            observations=[VantageObservation(
                vantage=v, country_code=c, city=city, ok=True,
                raw_text=f"{usd:.2f}", amount=usd, currency="USD", usd=usd,
                method="selector",
            ) for (v, c, city), usd in prices],
            guard_threshold=guard,
        )

    return [
        check(0, 0, 150, [(boston, 10.0), (finland, 11.0)], 1.1),
        check(1, 0, 151, [(boston, 10.0), (finland, 11.0)], 1.05),
        check(2, 1, 150, [(boston, 10.0), (finland, 12.0), (london, 10.0)], 1.1),
        check(3, 1, 151, [(boston, 10.0), (finland, 10.5)], 1.1),
        check(4, 2, 152, [(boston, 10.0), (finland, 12.0), (boston, 13.0)], 1.1),
        check(5, 2, 153, [(finland, 11.0), (boston, 10.0), (finland, 14.0)], 1.1),
        check(6, 3, 150, [(boston, 10.0), (finland, 10.0)], 1.0),
    ]


def dataset_cases():
    cases = dict(EDGE_CASES)
    cases["boundaries"] = boundary_reports()
    single = synthetic_reports(99, 60)
    cases["single_domain"] = [
        PriceCheckReport(
            check_id=r.check_id, url=r.url.replace(r.domain, "one.example"),
            domain="one.example", day_index=r.day_index, timestamp=r.timestamp,
            observations=r.observations, guard_threshold=r.guard_threshold,
        )
        for r in single
    ]
    for seed in (1, 2, 3):
        cases[f"random_{seed}"] = synthetic_reports(seed, 80)
    return cases


CASES = dataset_cases()
RATES = RateService(seed=5)
LOCATIONS = ["USA - Boston", "Finland - Tampere", "UK - London"]


def canonical(value):
    """A hash-seed-independent, order-keeping rendering of a result."""
    if isinstance(value, CleanResult):
        return (
            value.guard,
            sorted(value.dropped.items()),
            [report_to_dict(r) for r in value.kept],
        )
    if isinstance(value, (dict, Counter)):
        return [(canonical(k), canonical(v)) for k, v in value.items()]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if dataclasses.is_dataclass(value):
        return repr(value)
    return value


def digest(value) -> str:
    return hashlib.sha256(repr(canonical(value)).encode("utf-8")).hexdigest()


def per_domain(fn):
    """Run ``fn(reports, domain)`` for every domain of the input."""

    def run(reports):
        domains = sorted({r.domain for r in reports}) or ["only.example"]
        return {domain: fn(reports, domain) for domain in domains}

    return run


def cleaned_then_kernels(reports):
    kept = clean_reports(reports, RATES).kept
    return (
        variation_extent(kept),
        domain_ratio_stats(kept, only_variation=True),
        location_ratio_stats(kept),
    )


#: label -> the call it pins (label = function and keyword set).
CALLS = {
    "variation_extent()": variation_extent,
    "variation_extent(min_reports=3)":
        lambda r: variation_extent(r, min_reports=3),
    "domain_variation_counts()": domain_variation_counts,
    "domain_ratios(only_variation=False)":
        lambda r: domain_ratios(r, only_variation=False),
    "domain_ratios(only_variation=True)":
        lambda r: domain_ratios(r, only_variation=True),
    "domain_ratio_stats(only_variation=False)":
        lambda r: domain_ratio_stats(r, only_variation=False),
    "domain_ratio_stats(only_variation=True)":
        lambda r: domain_ratio_stats(r, only_variation=True),
    "location_ratio_stats()": location_ratio_stats,
    "location_ratio_stats(min_samples=4)":
        lambda r: location_ratio_stats(r, min_samples=4),
    "finland_profile()": finland_profile,
    "finland_profile(finland_vantage='UK - London')":
        lambda r: finland_profile(r, finland_vantage="UK - London"),
    "finland_profile(finland_vantage='Nowhere - Nope')":
        lambda r: finland_profile(r, finland_vantage="Nowhere - Nope"),
    "pairwise_grid(domain, LOCATIONS)":
        per_domain(lambda r, d: pairwise_grid(r, d, LOCATIONS)),
    "daily_extent()": daily_extent,
    "extent_stability()": extent_stability,
    "product_persistence()": product_persistence,
    "ratio_vs_min_price(only_variation=False)":
        lambda r: ratio_vs_min_price(r, only_variation=False),
    "ratio_vs_min_price(only_variation=True)":
        lambda r: ratio_vs_min_price(r, only_variation=True),
    "per_vantage_structure(domain)": per_domain(per_vantage_structure),
    "per_vantage_structure(domain, vantages=[Boston, London])": per_domain(
        lambda r, d: per_vantage_structure(
            r, d, vantages=["USA - Boston", "UK - London"]
        )
    ),
    "dataset_guard()": lambda r: dataset_guard(RATES, r),
    "dataset_guard(margin=0.01)": lambda r: dataset_guard(RATES, r, margin=0.01),
    "repeatable_products(guard=1.05)":
        lambda r: repeatable_products(r, guard=1.05),
    "clean_reports()": lambda r: clean_reports(r, RATES),
    "clean_reports(min_points=3)": lambda r: clean_reports(r, RATES, min_points=3),
    "clean_reports(require_repeatable=True)":
        lambda r: clean_reports(r, RATES, require_repeatable=True),
    "clean_reports(guard_margin=0.02)":
        lambda r: clean_reports(r, RATES, guard_margin=0.02),
    "clean_reports() -> extent, ratio stats, location stats":
        cleaned_then_kernels,
}


def assert_pinned(case: str, *labels: str) -> None:
    """Both input kinds reproduce the pinned answer of every label."""
    for label in labels:
        list_input, sliced = copies_and_slice(CASES[case])
        for kind, reports in (("list", list_input), ("slice", sliced)):
            assert digest(CALLS[label](reports)) == PINS[label][case], (
                f"{label} on the {kind} input of {case!r} left its pin"
            )


@pytest.fixture(params=sorted(CASES), name="case")
def case_fixture(request) -> str:
    return request.param


class TestKernelEquivalence:
    def test_variation_extent(self, case):
        assert_pinned(case, "variation_extent()", "variation_extent(min_reports=3)")

    def test_domain_variation_counts(self, case):
        assert_pinned(case, "domain_variation_counts()")

    def test_domain_ratios_and_stats(self, case):
        assert_pinned(
            case,
            "domain_ratios(only_variation=False)",
            "domain_ratios(only_variation=True)",
            "domain_ratio_stats(only_variation=False)",
            "domain_ratio_stats(only_variation=True)",
        )

    def test_location_ratio_stats(self, case):
        assert_pinned(
            case, "location_ratio_stats()", "location_ratio_stats(min_samples=4)"
        )

    def test_finland_profile(self, case):
        assert_pinned(
            case,
            "finland_profile()",
            "finland_profile(finland_vantage='UK - London')",
            "finland_profile(finland_vantage='Nowhere - Nope')",
        )

    def test_pairwise_grid(self, case):
        assert_pinned(case, "pairwise_grid(domain, LOCATIONS)")

    def test_daily_extent_and_stability(self, case):
        assert_pinned(case, "daily_extent()", "extent_stability()")

    def test_product_persistence(self, case):
        assert_pinned(case, "product_persistence()")

    def test_ratio_vs_min_price(self, case):
        assert_pinned(
            case,
            "ratio_vs_min_price(only_variation=False)",
            "ratio_vs_min_price(only_variation=True)",
        )

    def test_per_vantage_structure(self, case):
        assert_pinned(
            case,
            "per_vantage_structure(domain)",
            "per_vantage_structure(domain, vantages=[Boston, London])",
        )


class TestCleaningEquivalence:
    def test_dataset_guard(self, case):
        if not CASES[case]:
            with pytest.raises(ValueError):
                dataset_guard(RATES, [])
            return
        assert_pinned(case, "dataset_guard()", "dataset_guard(margin=0.01)")

    def test_repeatable_products(self, case):
        assert_pinned(case, "repeatable_products(guard=1.05)")

    def test_clean_reports(self, case):
        labels = [label for label in CALLS if label.startswith("clean_reports(")]
        assert_pinned(case, *labels)
        list_input, sliced = copies_and_slice(CASES[case])
        guards = [r.guard_threshold for r in list_input]
        from_list = clean_reports(list_input, RATES)
        from_slice = clean_reports(sliced, RATES)
        # The guard lands in the table behind ``kept`` (and any rows it
        # hands out), never in the caller's report objects.
        assert all(r.guard_threshold == from_slice.guard for r in from_slice.kept)
        assert all(r.guard_threshold == from_list.guard for r in from_list.kept)
        assert [r.guard_threshold for r in list_input] == guards

    def test_cleaned_slice_feeds_kernels(self, case):
        """The chained pipeline (clean -> figures) keeps its answers."""
        assert_pinned(case, "clean_reports() -> extent, ratio stats, location stats")
        list_input, sliced = copies_and_slice(CASES[case])
        assert isinstance(clean_reports(list_input, RATES).kept, TableSlice)
        assert isinstance(clean_reports(sliced, RATES).kept, TableSlice)
