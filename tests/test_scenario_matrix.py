"""The adversarial scenario matrix: ground truth, behaviours, invariants.

Three layers of assertion:

* **Behaviour units** -- each adversarial behaviour does exactly what it
  claims (sale schedules, churn rotation, stockout determinism, cloak
  budgets and their session state, currency switches, corruption
  flavours).
* **Detection scoring** -- the precision/recall scorer itself.
* **The matrix** -- for every registered scenario, the harness's
  invariants hold: detection precision 1.0 / recall >= 0.9 against
  ground truth, byte identity memo-on vs memo-off (fast tier) and
  across the full execution grid -- inline memo cells and memo-free
  inline and process cells (slow tier) --, expected memo demotions,
  and cleaning conduct on corrupted pages.

The matrix also proves its own teeth: turning the operator's daily
re-anchoring off makes template churn win, and an aggressive cloaking
budget visibly hides a real discriminator -- detection quality is a
measurement here, not an assumption.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.cleaning import clean_reports
from repro.analysis.detection import DetectionScore, DomainTruth, score_detection
from repro.core.backend import SheriffBackend
from repro.ecommerce.catalog import generate_catalog
from repro.ecommerce.pricing import PricingContext, UniformPricing, signals_read
from repro.ecommerce.retailer import Retailer
from repro.ecommerce.templates import (
    TEMPLATE_FAMILIES,
    ClassicTemplate,
    GridTemplate,
    ProductView,
)
from repro.ecommerce.world import WorldConfig, build_world, mult_policy, geo_table
from repro.scenarios import (
    DEFAULT_SCENARIOS,
    SCENARIOS,
    ChurningTemplate,
    CloakingServer,
    CurrencySwitchServer,
    FlashSale,
    GridCell,
    PageCorruptionServer,
    SessionStickyPricing,
    StockoutServer,
    check_invariants,
    get_scenario,
    run_cell,
    run_matrix,
)
from repro.scenarios.harness import DEFAULT_GRID

SEED = 2013


def _ctx(**kwargs) -> PricingContext:
    defaults = dict(country_code="US", city="Boston", day_index=10)
    defaults.update(kwargs)
    return PricingContext(**defaults)


def _product(sku="TST00001", price=100.0):
    catalog = generate_catalog("www.unit.test", "books", 4, seed=3)
    product = catalog.products[0]
    return dataclasses.replace(product, base_price_usd=price, sku=sku)


# ----------------------------------------------------------------------
# Behaviour units: pricing
# ----------------------------------------------------------------------
class TestFlashSale:
    def test_declares_day_index_on_top_of_inner(self):
        policy = FlashSale(UniformPricing(), factor=0.5)
        assert signals_read(policy) == frozenset({"day_index"})
        geo = FlashSale(mult_policy(geo_table(us=1.0), seed=1), factor=0.5)
        assert "country_code" in signals_read(geo)

    def test_sale_days_recur_with_the_period(self):
        policy = FlashSale(UniformPricing(), factor=0.5, period_days=3, seed=7)
        on_days = [day for day in range(12) if policy.sale_on(day)]
        assert len(on_days) == 4
        assert all(b - a == 3 for a, b in zip(on_days, on_days[1:]))

    def test_price_scales_only_on_sale_days(self):
        policy = FlashSale(UniformPricing(), factor=0.6, period_days=2, seed=1)
        product = _product(price=50.0)
        sale_day = next(day for day in range(4) if policy.sale_on(day))
        off_day = next(day for day in range(4) if not policy.sale_on(day))
        assert policy.price(product, _ctx(day_index=sale_day)) == pytest.approx(30.0)
        assert policy.price(product, _ctx(day_index=off_day)) == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashSale(UniformPricing(), factor=0.0)
        with pytest.raises(ValueError):
            FlashSale(UniformPricing(), period_days=1)


class TestSessionStickyPricing:
    def test_declares_identity(self):
        policy = SessionStickyPricing(UniformPricing())
        assert "identity" in signals_read(policy)

    def test_levels_stick_per_identity_and_differ_between(self):
        policy = SessionStickyPricing(UniformPricing(), amplitude=0.15, seed=3)
        product = _product(price=80.0)
        alice_a = policy.price(product, _ctx(identity="s1"))
        alice_b = policy.price(product, _ctx(identity="s1", day_index=99))
        bob = policy.price(product, _ctx(identity="s2"))
        assert alice_a == alice_b  # sticks across days
        assert alice_a != bob  # differs between sessions
        assert 80.0 * 0.85 <= alice_a <= 80.0 * 1.15

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionStickyPricing(UniformPricing(), amplitude=0.0)


# ----------------------------------------------------------------------
# Behaviour units: template churn
# ----------------------------------------------------------------------
class TestChurningTemplate:
    def test_rotates_through_every_family(self):
        template = ChurningTemplate(period_days=1, seed=5)
        families = [template.family_for_day(day).name for day in range(4)]
        assert sorted(families) == sorted(t.name for t in TEMPLATE_FAMILIES)
        assert all(a != b for a, b in zip(families, families[1:]))

    def test_selector_tracks_the_rendered_family(self):
        template = ChurningTemplate(period_days=1, seed=5)
        for day in range(4):
            assert (
                template.selector_for_day(day)
                == template.family_for_day(day).price_selector
            )

    def test_render_dispatches_on_view_day(self):
        template = ChurningTemplate(
            families=(ClassicTemplate(), GridTemplate()), period_days=1, seed=0
        )
        product = _product()
        views = [
            ProductView(
                retailer_name="Unit", domain="www.unit.test", product=product,
                price_text="$10.00", lang="en-US", currency_code="USD",
                day_index=day,
            )
            for day in (0, 1)
        ]
        rendered = {template.family_for_day(day).name for day in (0, 1)}
        assert rendered == {"classic", "grid"}
        # A classic page has the id anchor; a grid page has none.
        from repro.htmlmodel.selectors import Selector

        for view in views:
            document = template.render(view)
            family = template.family_for_day(view.day_index)
            found = Selector.parse(family.price_selector).select_one(document)
            assert found is not None and found.text() == "$10.00"

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurningTemplate(families=(ClassicTemplate(),))
        with pytest.raises(ValueError):
            ChurningTemplate(period_days=0)


# ----------------------------------------------------------------------
# Behaviour units: servers
# ----------------------------------------------------------------------
def _bare_world():
    return build_world(WorldConfig(
        seed=SEED, catalog_scale=0.15, long_tail_domains=0,
        include_long_tail=False, include_named_retailers=False,
    ))


def _unit_retailer(domain="www.unit.test", policy=None, template=None):
    return Retailer(
        domain=domain,
        name="Unit",
        category="books",
        catalog=generate_catalog(domain, "books", 5, seed=SEED),
        policy=policy or UniformPricing(),
        template=template or ClassicTemplate(),
    )


def _fetch(world, server, path, *, vantage=0, day=0):
    from repro.net.clock import SECONDS_PER_DAY

    world.network.register("www.unit.test", server)
    if day * SECONDS_PER_DAY > world.clock.now:
        world.clock.advance_to(day * SECONDS_PER_DAY)
    return world.vantage_points[vantage].fetch(
        world.network, f"http://www.unit.test{path}"
    )


class TestStockoutServer:
    def test_stockout_is_deterministic_per_sku_and_day(self):
        world = _bare_world()
        retailer = _unit_retailer()
        server = StockoutServer(
            retailer, geoip=world.geoip, rates=world.rates,
            seed=SEED, stockout_rate=0.5,
        )
        decisions = {
            (p.sku, day): server.stocked_out(p.sku, day)
            for p in retailer.catalog for day in range(6)
        }
        assert any(decisions.values()) and not all(decisions.values())
        again = StockoutServer(
            retailer, geoip=world.geoip, rates=world.rates,
            seed=SEED, stockout_rate=0.5,
        )
        assert decisions == {
            key: again.stocked_out(sku, day)
            for key in decisions for (sku, day) in [key]
        }

    def test_out_of_stock_day_serves_404_other_days_serve_pages(self):
        world = _bare_world()
        retailer = _unit_retailer()
        server = StockoutServer(
            retailer, geoip=world.geoip, rates=world.rates,
            seed=SEED, stockout_rate=0.5,
        )
        product = retailer.catalog.products[0]
        out_day = next(d for d in range(20) if server.stocked_out(product.sku, d))
        in_day = next(
            d for d in range(out_day + 1, 40)
            if not server.stocked_out(product.sku, d)
        )
        assert not _fetch(world, server, product.path, day=out_day).ok
        assert _fetch(world, server, product.path, day=in_day).ok

    def test_validation(self):
        world = _bare_world()
        with pytest.raises(ValueError):
            StockoutServer(
                _unit_retailer(), geoip=world.geoip, rates=world.rates,
                stockout_rate=1.0,
            )


class TestCloakingServer:
    def _server(self, world, budget):
        return CloakingServer(
            _unit_retailer(policy=mult_policy(
                geo_table(us=1.0, fi=1.4), seed=SEED)),
            geoip=world.geoip, rates=world.rates, seed=SEED,
            daily_request_budget=budget,
        )

    def test_over_budget_origin_sees_uniform_prices(self):
        world = _bare_world()
        server = self._server(world, budget=2)
        product = server.retailer.catalog.products[0]
        finland = next(
            i for i, vp in enumerate(world.vantage_points)
            if vp.location.country_code == "FI"
        )
        truthful = _fetch(world, server, product.path, vantage=finland).body
        _fetch(world, server, product.path, vantage=finland)
        cloaked = _fetch(world, server, product.path, vantage=finland).body
        assert server.cloaked_served > 0
        assert truthful != cloaked  # FI premium gone once cloaked

    def test_under_budget_origin_keeps_seeing_the_truth(self):
        world = _bare_world()
        server = self._server(world, budget=50)
        product = server.retailer.catalog.products[0]
        first = _fetch(world, server, product.path).body
        second = _fetch(world, server, product.path).body
        assert server.cloaked_served == 0
        assert first == second

    def test_unmemoizable_and_state_round_trips(self):
        world = _bare_world()
        server = self._server(world, budget=2)
        assert server.signature_profile() is None
        product = server.retailer.catalog.products[0]
        for _ in range(3):
            _fetch(world, server, product.path)
        state = server.session_state()
        assert state["cloaked_served"] == server.cloaked_served
        assert any(count >= 3 for count in state["ip_day_counts"].values())
        twin = self._server(world, budget=2)
        twin.restore_session_state(state)
        assert twin.session_state() == state

    def test_validation(self):
        world = _bare_world()
        with pytest.raises(ValueError):
            self._server(world, budget=0)


class TestCurrencySwitchServer:
    def test_home_currency_before_switch_localized_after(self):
        world = _bare_world()
        server = CurrencySwitchServer(
            _unit_retailer(), geoip=world.geoip, rates=world.rates,
            seed=SEED, switch_day=5,
        )
        # home_country US -> home currency is USD; a Finnish visitor sees
        # dollars before the switch and euros after.
        finland = next(
            i for i, vp in enumerate(world.vantage_points)
            if vp.location.country_code == "FI"
        )
        product = server.retailer.catalog.products[0]
        before = _fetch(world, server, product.path, vantage=finland, day=4).body
        after = _fetch(world, server, product.path, vantage=finland, day=5).body
        assert "$" in before and "€" not in before
        assert "€" in after


class TestPageCorruptionServer:
    def _server(self, world, rate=0.5):
        return PageCorruptionServer(
            _unit_retailer(), geoip=world.geoip, rates=world.rates,
            seed=SEED, corruption_rate=rate,
        )

    def test_both_flavours_occur_and_are_deterministic(self):
        world = _bare_world()
        server = self._server(world)
        bodies = {
            server.corruption_for(p.sku, day)
            for p in server.retailer.catalog for day in range(8)
        }
        assert None in bodies and len(bodies) == 3  # clean + two flavours

    def test_corrupted_page_is_served_with_http_200(self):
        world = _bare_world()
        server = self._server(world)
        product, day = next(
            (p, d)
            for p in server.retailer.catalog for d in range(10)
            if server.corruption_for(p.sku, d) is not None
        )
        response = _fetch(world, server, product.path, day=day)
        assert response.ok
        assert response.body == server.corruption_for(product.sku, day)

    def test_validation(self):
        world = _bare_world()
        with pytest.raises(ValueError):
            self._server(world, rate=1.0)


# ----------------------------------------------------------------------
# Detection scoring
# ----------------------------------------------------------------------
class TestDetectionScore:
    def _score(self, detected, truth):
        return DetectionScore(
            detected=detected, magnitude={}, truth=tuple(truth), guard=1.01
        )

    def test_percentages(self):
        truth = (
            DomainTruth("a.test", True, min_ratio=1.2),
            DomainTruth("b.test", True, min_ratio=1.2),
            DomainTruth("c.test", False),
        )
        score = self._score({"a.test": 1.0, "c.test": 0.8}, truth)
        assert score.true_positives == ["a.test"]
        assert score.false_positives == ["c.test"]
        assert score.false_negatives == ["b.test"]
        assert score.precision == 0.5
        assert score.recall == 0.5

    def test_untracked_detection_is_a_false_positive(self):
        score = self._score({"mystery.test": 1.0}, [DomainTruth("a.test", False)])
        assert score.false_positives == ["mystery.test"]
        assert score.precision == 0.0

    def test_empty_cases_score_perfect(self):
        score = self._score({}, [DomainTruth("a.test", False)])
        assert score.precision == 1.0 and score.recall == 1.0

    def test_magnitude_violations(self):
        truth = (DomainTruth("a.test", True, min_ratio=1.3),)
        score = DetectionScore(
            detected={"a.test": 1.0}, magnitude={"a.test": 1.05},
            truth=truth, guard=1.01,
        )
        assert score.magnitude_violations() == {"a.test": (1.05, 1.3)}

    def test_domain_truth_validation(self):
        with pytest.raises(ValueError):
            DomainTruth("a.test", True, min_ratio=0.9)
        with pytest.raises(ValueError):
            DomainTruth("a.test", False, min_ratio=1.2)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_at_least_six_scenarios_ship(self):
        assert len(DEFAULT_SCENARIOS) >= 6
        assert set(DEFAULT_SCENARIOS) == set(SCENARIOS)

    def test_every_scenario_has_both_verdict_kinds(self):
        """Each world plants something to find AND something to clear --
        precision and recall are both measured everywhere."""
        for name in DEFAULT_SCENARIOS:
            scenario = get_scenario(name)
            labels = {entry.discriminates for entry in scenario.truth}
            assert labels == {True, False}, name

    def test_unknown_scenario_is_a_helpful_error(self):
        with pytest.raises(KeyError, match="registered:"):
            get_scenario("no-such-world")
        with pytest.raises(KeyError, match="registered:"):
            build_world(WorldConfig(scenario="no-such-world"))

    def test_scenario_worlds_regrow_from_their_spec(self):
        world = get_scenario("session-sticky").build_world(SEED)
        rebuilt = world.spec().build()
        assert sorted(rebuilt.retailers) == sorted(world.retailers)
        assert rebuilt.extra_crowd_weights == world.extra_crowd_weights
        assert type(rebuilt.servers["www.stickysession.test"]) is type(
            world.servers["www.stickysession.test"]
        )


# ----------------------------------------------------------------------
# The matrix: per-scenario invariants (fast tier: inline cells only)
# ----------------------------------------------------------------------
_FAST_CELLS = (
    GridCell(burst_memo=True),
    GridCell(burst_memo=False),
    GridCell(burst_memo=True, validate_fraction=1.0),
)


@pytest.mark.parametrize("name", DEFAULT_SCENARIOS)
def test_scenario_invariants_inline(name):
    """Detection precision 1.0 / recall >= 0.9, memo-on == memo-off
    bytes, audited memo hits, expected demotions -- per scenario."""
    scenario = get_scenario(name)
    results = [run_cell(scenario, cell, seed=SEED) for cell in _FAST_CELLS]
    assert check_invariants(scenario, results) == []
    score = results[0].score
    assert score.precision == 1.0
    assert score.recall >= 0.9
    assert score.magnitude_violations() == {}


def test_reanchoring_is_load_bearing_for_template_churn():
    """A pre-crawl anchor (the paper's one-time manual step) goes stale
    the moment the template churns: detection loses the churning
    discriminator while fabricating nothing.  The registered scenario
    passes only because its operator re-anchors daily -- the harness
    measures that difference instead of assuming it."""
    from repro.crawler import CrawlConfig, build_plan, run_crawl
    from repro.net.clock import SECONDS_PER_DAY

    scenario = get_scenario("template-churn")
    world = scenario.build_world(SEED)
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    # The operator anchors the day *before* the crawl window opens...
    world.clock.advance_to((scenario.crawl_start_day - 1) * SECONDS_PER_DAY)
    plan = build_plan(
        world, domains=list(scenario.crawl_domains),
        products_per_retailer=scenario.products_per_retailer, seed=SEED,
    )
    # ... and every crawl day renders a different family than anchored.
    dataset = run_crawl(
        world, backend, plan,
        CrawlConfig(
            days=scenario.crawl_days, start_day=scenario.crawl_start_day,
            pacing_seconds=scenario.pacing_seconds,
        ),
    )
    score = score_detection(
        dataset.reports, world.rates, scenario.truth,
        min_extent=scenario.min_extent,
    )
    assert score.precision == 1.0  # churn never fabricates findings
    assert score.recall < 0.9  # ... but it hides real ones
    assert "www.churnshop.test" in score.false_negatives


def test_aggressive_cloaking_hides_a_real_discriminator():
    """With a budget the paced crawl cannot stay under, the cloak wins:
    recall drops while precision stays perfect (cloaked pages are
    uniform, so nothing false is manufactured)."""
    scenario = get_scenario("cloaking")
    world = scenario.build_world(SEED)
    server = world.servers["www.cloakedgeo.test"]
    server.daily_request_budget = 1
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    from repro.scenarios.harness import run_scenario_crawl

    crawl = run_scenario_crawl(world, backend, scenario, seed=SEED)
    score = score_detection(
        crawl.reports, world.rates, scenario.truth,
        min_extent=scenario.min_extent,
    )
    assert server.cloaked_served > 0
    assert score.precision == 1.0
    assert "www.cloakedgeo.test" in score.false_negatives


def test_page_noise_dies_in_cleaning_with_named_reasons():
    """Corrupted pages are eaten by exactly the declared guards."""
    scenario = get_scenario("page-noise")
    result = run_cell(scenario, GridCell(), seed=SEED)
    assert result.drop_counts.get("non-positive-price", 0) > 0
    assert result.drop_counts.get("too-few-observations", 0) > 0
    # Nothing corrupt reaches the kept set: every kept report has a full
    # complement of positive prices.
    world = scenario.build_world(SEED)
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    from repro.scenarios.harness import run_scenario_crawl

    crawl = run_scenario_crawl(world, backend, scenario, seed=SEED)
    clean = clean_reports(crawl.reports, world.rates, require_repeatable=True)
    for report in clean.kept:
        assert all(obs.amount > 0 for obs in report.valid_observations())


def test_corrupted_rounds_cannot_veto_clean_verdicts():
    """Regression for the cleaning-order bug the matrix surfaced: a
    product serving $0.00 corruption on one day must not make its clean,
    varying day fail the repeatability rule."""
    scenario = get_scenario("page-noise")
    world = scenario.build_world(SEED)
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    from repro.scenarios.harness import run_scenario_crawl

    crawl = run_scenario_crawl(world, backend, scenario, seed=SEED)
    strict = clean_reports(crawl.reports, world.rates, require_repeatable=True)
    lax = clean_reports(crawl.reports, world.rates, require_repeatable=False)
    strict_geo = [r for r in strict.kept if r.domain == "www.noisygeo.test"]
    lax_geo = [r for r in lax.kept if r.domain == "www.noisygeo.test"]
    # Repeatability may only drop genuinely unrepeatable variation; the
    # planted geo discriminator varies on every clean round.
    assert {r.check_id for r in strict_geo} == {r.check_id for r in lax_geo}


# ----------------------------------------------------------------------
# The matrix: the full execution grid (slow tier)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("name", DEFAULT_SCENARIOS)
def test_scenario_full_grid(name):
    """The acceptance grid: scenario × (the inline memo cell, memo-free
    inline and 2-worker process cells, a fully audited memo cell) is
    byte-identical and holds every invariant."""
    scenario = get_scenario(name)
    results = run_matrix(scenario, DEFAULT_GRID, seed=SEED)
    assert check_invariants(scenario, results) == []
    digests = {result.digest() for result in results}
    assert len(digests) == 1


# ----------------------------------------------------------------------
# Crash matrix: stateful scenarios through SIGKILL + resume (slow tier)
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("name", ["session-sticky", "cloaking"])
def test_stateful_scenario_survives_kill_and_resume(name, tmp_path):
    """The two stateful scenarios -- session-sticky pricing (per-session
    cookie state) and cloaking (per-(ip, day) request budgets) -- are
    exactly the worlds where a resume that loses server/session state
    would silently change detection.  Kill the checkpointed campaign
    mid-run with a real SIGKILL, resume it in a fresh process, run the
    scenario crawl on the resumed world, and the DomainTruth detection
    scores (and the campaign bytes, and the archive chain) must equal
    the uninterrupted run's."""
    from tests.crashkit import run_to_completion, run_until_killed

    def spec(tag: str, **overrides) -> dict:
        base = {
            "kind": "scenario",
            "scenario": name,
            "seed": SEED,
            "checkpoint_dir": str(tmp_path / tag / "ckpt"),
            "out": str(tmp_path / tag / "campaign.jsonl"),
            "result": str(tmp_path / tag / "result.json"),
        }
        base.update(overrides)
        return base

    reference = run_to_completion(spec("ref"))
    assert reference["score"]["true_positives"], (
        f"{name}: reference run detected nothing -- matrix has no teeth"
    )

    # Kill mid-day (a report just streamed in, the segment is un-durable)
    # and at a day boundary (mid manifest append) -- both windows where
    # session/cloak state has advanced past the last durable commit.
    for tag, point, count in (
        ("midday", "mid-day", 17),
        ("boundary", "manifest-mid-write", 2),
    ):
        run_until_killed(spec(tag, kill={"point": point, "count": count}))
        resumed = run_to_completion(spec(tag, resume=True))
        context = f"{name}/{point}"
        assert resumed["score"] == reference["score"], (
            f"{context}: detection scores changed across kill+resume"
        )
        assert resumed["out_sha256"] == reference["out_sha256"], (
            f"{context}: campaign bytes changed across kill+resume"
        )
        assert resumed["archive_chain"] == reference["archive_chain"], (
            f"{context}: archive hash chain diverged across kill+resume"
        )
        assert resumed["crawl_rows"] == reference["crawl_rows"]
