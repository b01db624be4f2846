"""Stateful property test of the cookie jar against a model.

The jar carries every personal-information signal in the system (logins,
personas, A/B buckets), so its semantics get a rule-based hypothesis
machine: arbitrary interleavings of set/put/expire/clear/restore must match
a plain dict model keyed by (host, name, path).  The model is scanned in
full on every check, so each path that maintains the jar's per-host index
is checked against a plain scan -- including the insertion order
``snapshot()`` exports and ``get()`` resolves by.

A shadow jar follows the live one the way a checkpoint's state files do:
at random points the live jar's ``take_changes()`` is applied to the
shadow, which must then hold the live jar's cookies host by host.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.net.cookiejar import CookieJar
from repro.net.http import SetCookie
from repro.net.urls import URL

_HOSTS = ("a.example", "b.example")
_NAMES = ("session", "auth", "bucket")
_PATHS = ("/", "/shop")


def by_host(jar: CookieJar) -> dict[str, list[dict]]:
    """A jar's cookies per host, each host's in the jar's order."""
    hosts: dict[str, list[dict]] = {}
    for cookie in jar.snapshot():
        hosts.setdefault(cookie["host"], []).append(cookie)
    return hosts


class CookieJarMachine(RuleBasedStateMachine):
    """Model-based test: CookieJar == dict[(host, name, path) -> value]."""

    def __init__(self) -> None:
        super().__init__()
        self.jar = CookieJar()
        self.model: dict[tuple[str, str, str], tuple[str, float | None]] = {}
        self.now = 0.0
        # The shadow holds what the applied changes carried; ``taken`` is
        # the live jar's content at the last take, which it must equal.
        self.shadow = CookieJar()
        self.taken: dict[str, list[dict]] = {}

    @rule(
        host=st.sampled_from(_HOSTS),
        name=st.sampled_from(_NAMES),
        path=st.sampled_from(_PATHS),
        value=st.text(alphabet="abc123", min_size=1, max_size=6),
        max_age=st.one_of(st.none(), st.integers(min_value=1, max_value=500)),
    )
    def set_cookie(self, host, name, path, value, max_age):
        self.jar.set(
            host, SetCookie(name, value, path=path, max_age=max_age),
            now=self.now,
        )
        expires = None if max_age is None else self.now + max_age
        self.model[(host, name, path)] = (value, expires)

    @rule(
        host=st.sampled_from(_HOSTS),
        name=st.sampled_from(_NAMES),
        path=st.sampled_from(_PATHS),
    )
    def delete_cookie(self, host, name, path):
        self.jar.set(host, SetCookie(name, "", path=path, max_age=0), now=self.now)
        self.model.pop((host, name, path), None)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_existing_cookie(self, data):
        """Max-Age=0 on a cookie the jar holds (the discard that counts)."""
        host, name, path = data.draw(st.sampled_from(sorted(self.model)))
        self.jar.set(host, SetCookie(name, "", path=path, max_age=0), now=self.now)
        del self.model[(host, name, path)]

    @rule(
        host=st.sampled_from(_HOSTS),
        name=st.sampled_from(_NAMES),
        path=st.sampled_from(_PATHS),
        value=st.text(alphabet="abc123", min_size=1, max_size=6),
    )
    def put_cookie(self, host, name, path, value):
        self.jar.put(host, name, value, path=path)
        self.model[(host, name, path)] = (value, None)

    @rule(host=st.sampled_from(_HOSTS))
    def clear_host(self, host):
        self.jar.clear(host)
        self.model = {k: v for k, v in self.model.items() if k[0] != host}

    @rule()
    def clear_all(self):
        self.jar.clear()
        self.model.clear()

    @rule()
    def transfer_to_fresh_jar(self):
        """The executors' hand-off: a new jar restored from a snapshot.

        The new jar has never been asked for changes, so its first take
        names every host: a full snapshot, which a fresh shadow takes.
        """
        fresh = CookieJar()
        fresh.restore(self.jar.snapshot())
        self.jar = fresh
        self.shadow = CookieJar()
        self.taken = {}

    @rule()
    def take_changes_into_shadow(self):
        """A checkpoint commit: the changes since the last take, applied."""
        changes = self.jar.take_changes()
        live = by_host(self.jar)
        for host, cookies in changes.items():
            assert cookies == live.get(host, [])
        self.shadow.apply_changes(changes)
        self.taken = live

    @rule(host=st.sampled_from(_HOSTS))
    def restore_own_host(self, host):
        """Upserting a host's own cookies back changes nothing, order included."""
        self.jar.restore(self.jar.snapshot({host}))

    @rule(delta=st.floats(min_value=0.5, max_value=300.0))
    def advance_time(self, delta):
        self.now += delta

    @invariant()
    def header_matches_model(self):
        for host in _HOSTS:
            url = URL.parse(f"http://{host}/shop/item")
            header = self.jar.header_for(url, now=self.now) or ""
            # The jar may send one name at two paths; RFC 6265 orders the
            # most specific path first and servers take the first value.
            sent: dict[str, str] = {}
            for pair in header.split("; "):
                if "=" in pair:
                    name, value = pair.split("=", 1)
                    sent.setdefault(name, value)
            expected: dict[str, str] = {}
            # Path "/" and "/shop" both match /shop/item; the narrower path
            # wins per name, so the model applies "/" first and lets
            # "/shop" overwrite.
            for path in ("/", "/shop"):
                for (h, name, p), (value, expires) in self.model.items():
                    if h != host or p != path:
                        continue
                    if expires is not None and self.now >= expires:
                        continue
                    expected[name] = value
            assert sent == expected, (sent, expected)

    @invariant()
    def get_matches_model(self):
        # ``get`` ignores path and expiry: the first-inserted cookie of
        # that name on the host wins.
        for host in _HOSTS:
            for name in _NAMES:
                expected = next(
                    (value for (h, n, _), (value, _) in self.model.items()
                     if h == host and n == name),
                    None,
                )
                assert self.jar.get(host, name) == expected

    @invariant()
    def snapshot_matches_model_order(self):
        assert len(self.jar) == len(self.model)
        exported = [
            ((c["host"], c["name"], c["path"]), (c["value"], c["expires_at"]))
            for c in self.jar.snapshot()
        ]
        assert exported == list(self.model.items())
        for host in _HOSTS:
            assert [c["name"] for c in self.jar.snapshot({host})] == [
                name for (h, name, _) in self.model if h == host
            ]


    @invariant()
    def shadow_matches_last_take_host_by_host(self):
        assert by_host(self.shadow) == self.taken


TestCookieJarMachine = CookieJarMachine.TestCase
TestCookieJarMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
