"""Client-side cookie storage.

Cookies carry the personal-information signals the paper studies: login
sessions (the Kindle ebook experiment of Fig. 10), trained personas
(affluent vs budget), and server-assigned A/B buckets (a noise source the
methodology must suppress).  The jar is per-client, host-scoped, and honors
``Path`` and ``Max-Age`` against the virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.net.http import HttpResponse, SetCookie
from repro.net.urls import URL

__all__ = ["CookieJar", "StoredCookie"]


@dataclass
class StoredCookie:
    """A cookie at rest in a jar."""

    host: str
    name: str
    value: str
    path: str = "/"
    expires_at: Optional[float] = None  # virtual time; None = session cookie
    secure: bool = False

    def matches(self, url: URL, now: float) -> bool:
        """True if this cookie should be sent on a request to ``url``."""
        if self.host != url.host:
            return False
        if self.expires_at is not None and now >= self.expires_at:
            return False
        if self.secure and url.scheme != "https":
            return False
        path = self.path if self.path.endswith("/") else self.path + "/"
        target = url.path if url.path.endswith("/") else url.path + "/"
        return target.startswith(path) or url.path == self.path


class CookieJar:
    """Host-scoped cookie store for one simulated client.

    ``_cookies`` holds every cookie in insertion order -- the order
    :meth:`snapshot` exports.  ``_by_host`` indexes the same cookies by
    host, so the per-request operations (:meth:`header_for`, :meth:`get`,
    ``clear(host)``) and :meth:`take_changes` touch only the hosts they
    name however many shops the client has visited.  Every mutation keeps
    both in step: a host's bucket lists its cookies in the same relative
    order as ``_cookies``, the per-host order checkpoint state bytes
    depend on.

    ``_changed`` names the hosts a store, discard or clear touched since
    the last :meth:`take_changes`.  It is ``None`` until that method is
    first called, so a jar nobody checkpoints records nothing.
    """

    def __init__(self) -> None:
        self._cookies: dict[tuple[str, str, str], StoredCookie] = {}
        self._by_host: dict[str, dict[tuple[str, str], StoredCookie]] = {}
        self._changed: Optional[set[str]] = None

    def __len__(self) -> int:
        return len(self._cookies)

    def _store(self, cookie: StoredCookie) -> None:
        host = cookie.host
        self._cookies[(host, cookie.name, cookie.path)] = cookie
        bucket = self._by_host.get(host)
        if bucket is None:
            bucket = self._by_host[host] = {}
        bucket[(cookie.name, cookie.path)] = cookie
        if self._changed is not None:
            self._changed.add(host)

    def _discard(self, host: str, name: str, path: str) -> None:
        if self._cookies.pop((host, name, path), None) is None:
            return
        if self._changed is not None:
            self._changed.add(host)
        bucket = self._by_host[host]
        del bucket[(name, path)]
        if not bucket:
            del self._by_host[host]

    # ------------------------------------------------------------------
    def set(self, host: str, cookie: SetCookie, *, now: float = 0.0) -> None:
        """Store a ``Set-Cookie`` received from ``host``.

        ``Max-Age=0`` (or negative) deletes the cookie, per RFC 6265.
        """
        if cookie.max_age is not None and cookie.max_age <= 0:
            self._discard(host, cookie.name, cookie.path)
            return
        expires = None if cookie.max_age is None else now + cookie.max_age
        self._store(StoredCookie(
            host=host,
            name=cookie.name,
            value=cookie.value,
            path=cookie.path,
            expires_at=expires,
            secure=cookie.secure,
        ))

    def update_from_response(self, url: URL, response: HttpResponse, *, now: float = 0.0) -> None:
        """Ingest every ``Set-Cookie`` header of ``response``."""
        for cookie in response.set_cookies:
            self.set(url.host, cookie, now=now)

    def put(self, host: str, name: str, value: str, *, path: str = "/") -> None:
        """Directly install a cookie (used to inject login sessions)."""
        self._store(StoredCookie(host=host, name=name, value=value, path=path))

    def get(self, host: str, name: str) -> Optional[str]:
        """Value of cookie ``name`` for ``host`` ignoring path, or None."""
        for (n, _), cookie in self._by_host.get(host, {}).items():
            if n == name:
                return cookie.value
        return None

    def clear(self, host: Optional[str] = None) -> None:
        """Forget all cookies, or only those of ``host``."""
        if host is None:
            if self._changed is not None:
                self._changed.update(self._by_host)
            self._cookies.clear()
            self._by_host.clear()
            return
        bucket = self._by_host.pop(host, None)
        if bucket is None:
            return
        if self._changed is not None:
            self._changed.add(host)
        for name, path in bucket:
            del self._cookies[(host, name, path)]

    # ------------------------------------------------------------------
    # State transfer (the shard executors' session hand-off and the
    # checkpoint's per-day changes)
    # ------------------------------------------------------------------
    @staticmethod
    def _export(cookies: Iterable[StoredCookie]) -> list[dict]:
        return [
            {
                "host": c.host,
                "name": c.name,
                "value": c.value,
                "path": c.path,
                "expires_at": c.expires_at,
                "secure": c.secure,
            }
            for c in cookies
        ]

    def snapshot(self, hosts: Optional[set[str]] = None) -> list[dict]:
        """Export cookies as picklable dicts, optionally for ``hosts`` only.

        Together with :meth:`restore` this moves per-domain session state
        between a coordinator and a shard worker without shipping the jar
        object itself.  Insertion order is preserved.
        """
        return self._export(
            c for c in self._cookies.values()
            if hosts is None or c.host in hosts
        )

    def restore(self, snapshot: list[dict]) -> None:
        """Install cookies exported by :meth:`snapshot` (upserting by key)."""
        for item in snapshot:
            self._store(StoredCookie(**item))

    def take_changes(self) -> dict[str, list[dict]]:
        """``{host: that host's cookies now}`` for every host changed since
        the last call, in :meth:`snapshot` form.

        A host whose cookies all went maps to ``[]``.  The first call names
        every host the jar holds and starts the record; later calls name
        only the hosts a store, discard or clear touched in between.
        :meth:`apply_changes` installs the result in another jar.
        """
        changed = self._by_host if self._changed is None else sorted(self._changed)
        self._changed = set()
        by_host = self._by_host
        return {
            host: self._export(by_host[host].values()) if host in by_host else []
            for host in changed
        }

    def apply_changes(self, changes: Mapping[str, list[dict]]) -> None:
        """Install a :meth:`take_changes` result: each named host's cookies
        are replaced by the listed ones (its own order kept); other hosts
        are untouched."""
        for host, cookies in changes.items():
            self.clear(host)
            self.restore(cookies)

    # ------------------------------------------------------------------
    def header_for(self, url: URL, *, now: float = 0.0) -> Optional[str]:
        """The ``Cookie:`` header value for a request to ``url``."""
        bucket = self._by_host.get(url.host)
        if bucket is None:
            return None
        sendable = [cookie for cookie in bucket.values() if cookie.matches(url, now)]
        if not sendable:
            return None
        # Longest path first, then by name: (host, name, path) is the jar
        # key, so the order has no ties and needs no insertion order.
        sendable.sort(key=lambda c: (-len(c.path), c.name))
        return "; ".join(f"{c.name}={c.value}" for c in sendable)
