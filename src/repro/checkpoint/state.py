"""Run-state capture: what each day changed of what a resumed run restores.

The determinism contract (``docs/ARCHITECTURE.md``) makes a check's bytes
a function of its schedule entry plus a small set of mutable cursors.
:func:`capture_run_state` records, after each committed day-segment,
the part of those cursors the day changed:

* the world clock and the backend's check-id counter,
* the page store's archive hash chain (stream identity; its kept pages
  are not recorded),
* the campaign RNG's ``getstate()``,

all four in full (they are small), plus

* the hosts whose cookies changed in each vantage point's and -- for
  campaigns -- each crowd user's jar (:meth:`CookieJar.take_changes`),
* the retailer servers whose ``session_state()`` (request counters, plus
  whatever stateful scenario servers add) differs from its last
  committed value.

No burst memo state is recorded: a checkpointed run holds no memo
(:meth:`~repro.checkpoint.runner.RunCheckpoint.open` refuses a backend
that does, before it touches the directory).  A state file an older
version wrote may still carry a ``burst_live_only`` scalar; it folds
like any scalar and is ignored.

A checkpoint's first capture is a full snapshot: every host of every jar
and every server, whatever the world ran before.  :func:`fold_run_state`
folds the captures in commit order back into one state of the same
shape, and :func:`restore_run_state` installs that into a fresh world.

State is serialized as *tagged JSON*: plain JSON cannot round-trip the
tuples inside ``random.Random.getstate()`` or the ``(ip, day)``-keyed
dicts the cloaking server tracks, so :func:`encode_state` wraps tuples as
``{"__t__": [...]}`` and non-string-keyed dicts as ``{"__m__": [[k, v],
...]}``.  :func:`decode_state` inverts exactly, so
``decode(json(encode(x))) == x`` for every value the session-state SPI
produces (test-asserted, including fuzzed nests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from repro.checkpoint.manifest import CheckpointMismatchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

    from repro.core.backend import SheriffBackend
    from repro.core.extension import UserClient
    from repro.ecommerce.world import World
    from repro.net.cookiejar import CookieJar

__all__ = [
    "capture_run_state",
    "decode_state",
    "encode_state",
    "fold_run_state",
    "restore_run_state",
]

#: The per-owner maps a capture holds only the changed part of.
_JARS = ("vantage_jars", "user_jars")

_TUPLE_TAG = "__t__"
_MAP_TAG = "__m__"
_TAGS = (_TUPLE_TAG, _MAP_TAG)


# ----------------------------------------------------------------------
# Tagged JSON encoding
# ----------------------------------------------------------------------
def encode_state(obj):
    """Encode ``obj`` into JSON-representable data, losslessly.

    Tuples and dicts with non-string (or tag-colliding) keys get tagged
    wrappers; lists, string-keyed dicts, and scalars pass through.
    Anything else is a hard error -- state that cannot round-trip must
    never be silently approximated.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, tuple):
        return {_TUPLE_TAG: [encode_state(v) for v in obj]}
    if isinstance(obj, list):
        return [encode_state(v) for v in obj]
    if isinstance(obj, dict):
        plain = all(
            isinstance(k, str) and k not in _TAGS for k in obj
        )
        if plain:
            return {k: encode_state(v) for k, v in obj.items()}
        return {
            _MAP_TAG: [
                [encode_state(k), encode_state(v)] for k, v in obj.items()
            ]
        }
    raise TypeError(
        f"cannot checkpoint a {type(obj).__name__} value: {obj!r}"
    )


def decode_state(obj):
    """Invert :func:`encode_state`."""
    if isinstance(obj, list):
        return [decode_state(v) for v in obj]
    if isinstance(obj, dict):
        if set(obj) == {_TUPLE_TAG}:
            return tuple(decode_state(v) for v in obj[_TUPLE_TAG])
        if set(obj) == {_MAP_TAG}:
            return {
                decode_state(k): decode_state(v) for k, v in obj[_MAP_TAG]
            }
        return {k: decode_state(v) for k, v in obj.items()}
    return obj


# ----------------------------------------------------------------------
# Run-state capture / restore
# ----------------------------------------------------------------------
def _jar_changes(jar: "CookieJar", full: bool) -> dict:
    changes = jar.take_changes()
    if not full:
        return changes
    # A jar an earlier checkpoint tracked names only what changed since;
    # a first capture must name every host it holds.
    every: dict[str, list[dict]] = {}
    for cookie in jar.snapshot():
        every.setdefault(cookie["host"], []).append(cookie)
    return every


def capture_run_state(
    world: "World",
    backend: "SheriffBackend",
    *,
    committed_servers: Optional[Mapping[str, dict]] = None,
    rng: Optional["random.Random"] = None,
    user_clients: Optional[Mapping[str, "UserClient"]] = None,
) -> dict:
    """Record what the run changed since its last capture (module doc).

    ``committed_servers`` maps each server domain to its session state as
    of the last commit (:attr:`RunCheckpoint.committed_servers`).  Without
    it the capture is a checkpoint's first and names every host of every
    jar and every server.  A jar with nothing to name is left out.
    """
    full = committed_servers is None
    servers = {}
    for domain, server in sorted(world.servers.items()):
        session = server.session_state()
        if full or committed_servers.get(domain) != session:
            servers[domain] = session
    state = {
        "clock": world.clock.now,
        "next_check_number": backend.next_check_number,
        "archive_chain": backend.store.archive_chain,
        "vantage_jars": {
            vp.name: changes
            for vp in world.vantage_points
            if (changes := _jar_changes(vp.jar, full))
        },
        "servers": servers,
    }
    if rng is not None:
        state["rng"] = rng.getstate()
    if user_clients is not None:
        state["user_jars"] = {
            user_id: changes
            for user_id, client in sorted(user_clients.items())
            if (changes := _jar_changes(client.jar, full))
        }
    return state


def fold_run_state(state: dict, later: dict) -> dict:
    """Fold a later capture into ``state`` (in place) and return it.

    The later capture's scalars replace ``state``'s; its servers and each
    of its jars' hosts overwrite theirs.  Folding every committed capture
    in commit order gives the run state as of the last commit.
    """
    for key, value in later.items():
        if key in _JARS:
            jars = state.setdefault(key, {})
            for owner, hosts in value.items():
                jars.setdefault(owner, {}).update(hosts)
        elif key == "servers":
            state[key].update(value)
        else:
            state[key] = value
    return state


def restore_run_state(
    state: dict,
    world: "World",
    backend: "SheriffBackend",
    *,
    rng: Optional["random.Random"] = None,
    user_clients: Optional[Mapping[str, "UserClient"]] = None,
) -> None:
    """Install a folded run state (:func:`fold_run_state`) into a *fresh*
    world.

    The world must be newly regrown from its :class:`WorldSpec` (clock at
    the epoch, jars empty, counters zeroed) -- restore advances cursors
    forward, it cannot rewind a world that already ran.  A state naming
    a vantage point, server, or user the world does not have raises
    :class:`CheckpointMismatchError`.  Every jar then records changes
    from the installed state on, so the next capture names only what
    the run changes after the resume.
    """
    vantages = {vp.name: vp for vp in world.vantage_points}
    for name, changes in state["vantage_jars"].items():
        point = vantages.get(name)
        if point is None:
            raise CheckpointMismatchError(
                f"checkpoint names unknown vantage point {name!r}"
            )
        point.jar.apply_changes(changes)
    for domain, server_state in state["servers"].items():
        server = world.servers.get(domain)
        if server is None:
            raise CheckpointMismatchError(
                f"checkpoint names unknown retailer server {domain!r}"
            )
        server.restore_session_state(server_state)
    jars = [vp.jar for vp in world.vantage_points]
    if user_clients is not None:
        for user_id, changes in state.get("user_jars", {}).items():
            client = user_clients.get(user_id)
            if client is None:
                raise CheckpointMismatchError(
                    f"checkpoint names unknown crowd user {user_id!r}"
                )
            client.jar.apply_changes(changes)
        jars.extend(client.jar for client in user_clients.values())
    for jar in jars:
        jar.take_changes()  # the record starts at the installed state
    if rng is not None and "rng" in state:
        rng.setstate(state["rng"])
    backend.store.restore_archive_chain(state["archive_chain"])
    backend.next_check_number = state["next_check_number"]
    world.clock.advance_to(state["clock"])
