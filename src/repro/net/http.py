"""HTTP message model: headers, requests, responses, wire cookies.

The simulation routes :class:`HttpRequest` objects from vantage points to
retailer servers and :class:`HttpResponse` objects back.  Headers carry the
signals the paper identifies as price-relevant: the client IP (geo-located
by retailers), ``User-Agent`` (browser/OS), ``Accept-Language``, ``Cookie``
(login sessions, personas, A/B buckets) and ``Referer`` (the earlier paper
[4] found referrer-dependent prices).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.net.urls import URL

if TYPE_CHECKING:  # structured-fetch channel; avoids a hard layer dependency
    from repro.htmlmodel.dom import Document

__all__ = [
    "Headers",
    "HttpRequest",
    "HttpResponse",
    "HttpStatus",
    "SetCookie",
    "parse_cookie_header",
]


class HttpStatus(enum.IntEnum):
    """The status codes the simulation produces."""

    OK = 200
    MOVED_PERMANENTLY = 301
    FOUND = 302
    NOT_MODIFIED = 304
    BAD_REQUEST = 400
    FORBIDDEN = 403
    NOT_FOUND = 404
    TOO_MANY_REQUESTS = 429
    INTERNAL_SERVER_ERROR = 500
    SERVICE_UNAVAILABLE = 503

    @property
    def is_success(self) -> bool:
        return 200 <= self.value < 300

    @property
    def is_redirect(self) -> bool:
        return self.value in (301, 302)


class Headers:
    """Case-insensitive, order-preserving multi-header map."""

    def __init__(self, items: Optional[Iterable[tuple[str, str]]] = None) -> None:
        self._items: list[tuple[str, str]] = []
        if items:
            for name, value in items:
                self.add(name, value)

    # ------------------------------------------------------------------
    def add(self, name: str, value: str) -> None:
        """Append a header, preserving any existing values for ``name``."""
        self._items.append((str(name), str(value)))

    def set(self, name: str, value: str) -> None:
        """Replace all values of ``name`` with a single value."""
        lowered = name.lower()
        self._items = [(n, v) for n, v in self._items if n.lower() != lowered]
        self._items.append((str(name), str(value)))

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First value of ``name``, or ``default``."""
        lowered = name.lower()
        for n, v in self._items:
            if n.lower() == lowered:
                return v
        return default

    def get_all(self, name: str) -> list[str]:
        """Every value of ``name``, in insertion order."""
        lowered = name.lower()
        return [v for n, v in self._items if n.lower() == lowered]

    def remove(self, name: str) -> None:
        """Delete all values of ``name``."""
        lowered = name.lower()
        self._items = [(n, v) for n, v in self._items if n.lower() != lowered]

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def copy(self) -> "Headers":
        """An independent copy of this header map."""
        return Headers(self._items)

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return self._items == other._items


@dataclass
class HttpRequest:
    """A simulated HTTP request.

    ``client_ip`` is what a real server would read from the TCP connection;
    it is the primary geo signal.  ``timestamp`` is virtual-clock seconds.
    """

    method: str
    url: URL
    headers: Headers = field(default_factory=Headers)
    body: str = ""
    client_ip: str = ""
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        self.method = self.method.upper()
        if self.method not in ("GET", "HEAD", "POST"):
            raise ValueError(f"unsupported method {self.method!r}")
        if isinstance(self.url, str):  # tolerated convenience
            self.url = URL.parse(self.url)

    @property
    def cookies(self) -> dict[str, str]:
        """Cookies sent by the client, parsed from the Cookie header."""
        header = self.headers.get("Cookie")
        return parse_cookie_header(header) if header else {}

    @property
    def user_agent(self) -> str:
        return self.headers.get("User-Agent", "")

    @property
    def accept_language(self) -> str:
        return self.headers.get("Accept-Language", "")

    @property
    def referer(self) -> Optional[str]:
        return self.headers.get("Referer")


@dataclass(frozen=True)
class SetCookie:
    """A parsed ``Set-Cookie`` value."""

    name: str
    value: str
    path: str = "/"
    max_age: Optional[int] = None
    secure: bool = False
    http_only: bool = False

    def to_header(self) -> str:
        """Serialize to a ``Set-Cookie`` header value."""
        parts = [f"{self.name}={self.value}", f"Path={self.path}"]
        if self.max_age is not None:
            parts.append(f"Max-Age={self.max_age}")
        if self.secure:
            parts.append("Secure")
        if self.http_only:
            parts.append("HttpOnly")
        return "; ".join(parts)

    @classmethod
    def parse(cls, header: str) -> "SetCookie":
        parts = [p.strip() for p in header.split(";") if p.strip()]
        if not parts or "=" not in parts[0]:
            raise ValueError(f"bad Set-Cookie: {header!r}")
        name, _, value = parts[0].partition("=")
        kwargs: dict = {"path": "/", "max_age": None, "secure": False, "http_only": False}
        for attr in parts[1:]:
            key, _, val = attr.partition("=")
            key = key.strip().lower()
            if key == "path":
                kwargs["path"] = val.strip() or "/"
            elif key == "max-age":
                try:
                    kwargs["max_age"] = int(val.strip())
                except ValueError:
                    pass
            elif key == "secure":
                kwargs["secure"] = True
            elif key == "httponly":
                kwargs["http_only"] = True
        return cls(name=name.strip(), value=value.strip(), **kwargs)


def parse_cookie_header(header: str) -> dict[str, str]:
    """Parse a ``Cookie:`` request header into a name→value map."""
    out: dict[str, str] = {}
    for pair in header.split(";"):
        pair = pair.strip()
        if not pair or "=" not in pair:
            continue
        name, _, value = pair.partition("=")
        out[name.strip()] = value.strip()
    return out


@dataclass
class HttpResponse:
    """A simulated HTTP response.

    ``document`` is the structured-fetch channel: a server that *renders* a
    DOM tree may attach it alongside the serialized ``body`` so in-process
    consumers (the $heriff backend fan-out) can skip re-parsing the wire
    text.  The body remains the byte-faithful archival representation; the
    attached tree must be treated as read-only.  A product page's document
    is a :class:`~repro.htmlmodel.shape.FilledDocument`: filled from a page
    shape, it builds its tree on the first structural read, and
    extraction, which resolves an anchor once per shape, reads the
    anchored text from the shape's plan without one.
    """

    status: HttpStatus
    headers: Headers = field(default_factory=Headers)
    body: str = ""
    url: Optional[URL] = None  # final URL after redirects
    elapsed: float = 0.0  # virtual seconds from request to response
    #: Parsed/rendered DOM of ``body``, when the server kept it (read-only).
    document: Optional["Document"] = field(
        default=None, compare=False, repr=False
    )

    @property
    def content_type(self) -> str:
        return self.headers.get("Content-Type", "")

    @property
    def set_cookies(self) -> list[SetCookie]:
        out = []
        for value in self.headers.get_all("Set-Cookie"):
            try:
                out.append(SetCookie.parse(value))
            except ValueError:
                continue
        return out

    @property
    def ok(self) -> bool:
        return self.status.is_success

    @classmethod
    def html(
        cls,
        body: str,
        *,
        status: HttpStatus = HttpStatus.OK,
        document: Optional["Document"] = None,
    ) -> "HttpResponse":
        """Convenience constructor for an HTML page response.

        ``document`` optionally attaches the already-built DOM of ``body``
        (the structured-fetch channel) so in-process consumers need not
        re-parse the serialized text.
        """
        headers = Headers()
        headers.set("Content-Type", "text/html; charset=utf-8")
        headers.set("Content-Length", str(len(body.encode("utf-8"))))
        return cls(status=status, headers=headers, body=body, document=document)

    @classmethod
    def not_found(cls, message: str = "not found") -> "HttpResponse":
        headers = Headers()
        headers.set("Content-Type", "text/plain; charset=utf-8")
        return cls(status=HttpStatus.NOT_FOUND, headers=headers, body=message)

    @classmethod
    def redirect(cls, location: str, *, permanent: bool = False) -> "HttpResponse":
        headers = Headers()
        headers.set("Location", location)
        status = HttpStatus.MOVED_PERMANENTLY if permanent else HttpStatus.FOUND
        return cls(status=status, headers=headers, body="")
