"""Cookie jar, browser profiles and vantage point tests."""

from __future__ import annotations

import pytest

from repro.net.cookiejar import CookieJar
from repro.net.geoip import IPAddressPlan
from repro.net.http import HttpResponse, SetCookie
from repro.net.urls import URL
from repro.net.useragent import BrowserProfile, STANDARD_PROFILES, profile_for
from repro.net.vantage import VANTAGE_SPECS, VantagePoint, standard_vantage_points


class TestCookieJar:
    def test_set_and_header(self):
        jar = CookieJar()
        jar.set("shop.example", SetCookie("a", "1"))
        header = jar.header_for(URL.parse("http://shop.example/x"))
        assert header == "a=1"

    def test_host_scoping(self):
        jar = CookieJar()
        jar.set("shop.example", SetCookie("a", "1"))
        assert jar.header_for(URL.parse("http://other.example/")) is None

    def test_path_scoping(self):
        jar = CookieJar()
        jar.set("h.example", SetCookie("a", "1", path="/admin"))
        assert jar.header_for(URL.parse("http://h.example/shop")) is None
        assert jar.header_for(URL.parse("http://h.example/admin/x")) == "a=1"
        assert jar.header_for(URL.parse("http://h.example/admin")) == "a=1"

    def test_expiry_against_clock(self):
        jar = CookieJar()
        jar.set("h.example", SetCookie("a", "1", max_age=100), now=0.0)
        url = URL.parse("http://h.example/")
        assert jar.header_for(url, now=50.0) == "a=1"
        assert jar.header_for(url, now=100.0) is None

    def test_max_age_zero_deletes(self):
        jar = CookieJar()
        jar.set("h.example", SetCookie("a", "1"))
        jar.set("h.example", SetCookie("a", "", max_age=0))
        assert len(jar) == 0

    def test_secure_requires_https(self):
        jar = CookieJar()
        jar.set("h.example", SetCookie("s", "1", secure=True))
        assert jar.header_for(URL.parse("http://h.example/")) is None
        assert jar.header_for(URL.parse("https://h.example/")) == "s=1"

    def test_update_from_response(self):
        jar = CookieJar()
        response = HttpResponse.html("x")
        response.headers.add("Set-Cookie", "a=1")
        response.headers.add("Set-Cookie", "b=2")
        jar.update_from_response(URL.parse("http://h.example/"), response)
        assert jar.get("h.example", "a") == "1"
        assert jar.get("h.example", "b") == "2"

    def test_put_and_clear(self):
        jar = CookieJar()
        jar.put("a.example", "x", "1")
        jar.put("b.example", "y", "2")
        jar.clear("a.example")
        assert jar.get("a.example", "x") is None
        assert jar.get("b.example", "y") == "2"
        jar.clear()
        assert len(jar) == 0

    def test_header_ordering_longest_path_first(self):
        jar = CookieJar()
        jar.put("h.example", "broad", "1", path="/")
        jar.put("h.example", "narrow", "2", path="/shop")
        header = jar.header_for(URL.parse("http://h.example/shop/item"))
        assert header == "narrow=2; broad=1"


    def test_take_changes_names_each_host_a_mutation_touched(self):
        jar = CookieJar()
        jar.put("a.example", "x", "1")
        jar.put("b.example", "y", "2")
        # The first take names every host the jar holds.
        assert jar.take_changes() == {
            "a.example": jar.snapshot({"a.example"}),
            "b.example": jar.snapshot({"b.example"}),
        }
        assert jar.take_changes() == {}
        jar.put("c.example", "z", "3")  # store
        jar.set("a.example", SetCookie("x", "", max_age=0))  # discard
        jar.set("a.example", SetCookie("gone", "", max_age=0))  # no-op
        assert jar.take_changes() == {
            "a.example": [], "c.example": jar.snapshot({"c.example"}),
        }
        jar.clear("b.example")
        jar.clear("nowhere.example")  # held nothing: no change
        assert jar.take_changes() == {"b.example": []}
        jar.clear()
        assert jar.take_changes() == {"c.example": []}

    def test_apply_changes_replaces_named_hosts_in_their_order(self):
        live, shadow = CookieJar(), CookieJar()
        live.put("a.example", "x", "1")
        live.put("a.example", "y", "2")
        shadow.apply_changes(live.take_changes())
        live.put("a.example", "x", "3")  # updated in place: order kept
        live.put("b.example", "z", "4")
        shadow.put("b.example", "stale", "0")
        shadow.put("c.example", "other", "5")
        shadow.apply_changes(live.take_changes())
        for host in ("a.example", "b.example"):
            assert shadow.snapshot({host}) == live.snapshot({host})
        assert shadow.get("c.example", "other") == "5"  # not named: kept


class TestBrowserProfiles:
    def test_standard_profiles_complete(self):
        assert set(STANDARD_PROFILES) == {
            "linux-firefox", "windows-chrome", "macos-safari"
        }

    @pytest.mark.parametrize("key", list(STANDARD_PROFILES))
    def test_user_agent_plausible(self, key):
        profile = STANDARD_PROFILES[key]
        ua = profile.user_agent
        assert ua.startswith("Mozilla/5.0")
        assert profile.version in ua

    def test_labels_match_paper_legend(self):
        assert profile_for("firefox", "linux").label == "Linux,FF"
        assert profile_for("safari", "macos").label == "Mac,Safari"
        assert profile_for("chrome", "windows").label == "Win,Chrome"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            profile_for("netscape", "linux")
        with pytest.raises(ValueError):
            profile_for("chrome", "beos")


class TestVantagePoints:
    def test_fleet_matches_paper(self):
        plan = IPAddressPlan()
        points = standard_vantage_points(plan)
        assert len(points) == 14
        names = {p.name for p in points}
        assert "Finland - Tampere" in names
        assert "USA - Albany" in names
        spain = [p for p in points if p.name.startswith("Spain")]
        assert len(spain) == 3
        # Same city, different browsers.
        assert len({p.location.city for p in spain}) == 1
        assert len({p.profile.browser for p in spain}) == 3

    def test_each_point_geolocates_correctly(self):
        plan = IPAddressPlan()
        db = plan.database()
        for point in standard_vantage_points(plan):
            location = db.lookup(point.ip)
            assert location is not None
            assert location.country_code == point.location.country_code
            assert location.city == point.location.city

    def test_build_request_carries_identity(self):
        plan = IPAddressPlan()
        point = standard_vantage_points(plan)[0]
        point.jar.put("shop.example", "session", "s1")
        request = point.build_request(
            "http://shop.example/p/1", referer="http://ref.example/"
        )
        assert request.client_ip == point.ip
        assert request.headers.get("User-Agent") == point.profile.user_agent
        assert request.cookies == {"session": "s1"}
        assert request.referer == "http://ref.example/"

    def test_specs_cover_14(self):
        assert len(VANTAGE_SPECS) == 14


class TestRetryBackoff:
    """`fetch_with_retries`: bounded, deterministic retries."""

    def _point(self):
        return standard_vantage_points(IPAddressPlan())[0]

    def _network(self, *, loss_rate=0.0, seed=3):
        from repro.net.clock import VirtualClock
        from repro.net.transport import FunctionServer, Network

        net = Network(VirtualClock(), seed=seed, loss_rate=loss_rate)
        net.register(
            "shop.example",
            FunctionServer(lambda r: HttpResponse.html("ok")),
        )
        return net

    def test_backoff_runs_are_deterministic(self):
        """Same seed -> the same draws, clock, and outcome; the retry
        schedule is request-keyed, not wall-clock-keyed."""
        def run():
            net = self._network(loss_rate=0.45, seed=11)
            point = self._point()
            try:
                body = point.fetch_with_retries(
                    net, "http://shop.example/", attempts=5,
                ).body
            except Exception as exc:  # noqa: BLE001 - compared below
                body = f"failed: {exc}"
            return body, net.clock.now, net.request_count

        assert run() == run()

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            self._point().fetch_with_retries(
                self._network(), "http://shop.example/", attempts=0
            )

    def test_all_attempts_lost_reraises_the_last_failure(self, monkeypatch):
        from repro.net.transport import TransportError

        point = self._point()
        failures = [TransportError(f"lost {i}") for i in range(3)]
        raised = iter(failures)

        def lost(network, url, *, referer=None):
            raise next(raised)

        monkeypatch.setattr(point, "fetch", lost)
        with pytest.raises(TransportError) as caught:
            point.fetch_with_retries(
                self._network(), "http://shop.example/", attempts=3
            )
        assert caught.value is failures[-1]
