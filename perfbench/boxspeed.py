"""How fast the box runs Python right now, sampled all through a run.

The machine this benchmark was built on shares its cores with other
tenants, and its speed swings by tens of percent over minutes: with the
inputs fixed, ten back-to-back ``campaign`` runs ranged from 65 to 105
checks/s (IQR 30% of the median), while the CPU time of one fixed piece
of Python moved by up to 27% between runs and tracked it.  So every run
samples that fixed piece of Python (a tiny HTML table built from objects
and dicts, rendered with f-strings and joins, then parsed back: the kind
of work the program does) every 0.2 s on the run's CPU, in a thread of
the benchmark's own process, timed in thread CPU time so waiting for the
CPU does not count.  The speed also moves within a run: three
consecutive 3-second ``repro analyze`` commands took 3.8, 2.8 and 2.7 s,
and their CPU times moved with them.  So :meth:`BoxSpeed.slowness` is
the mean sample taken *during one measured interval* over
:data:`REFERENCE_S`; ``run.py`` divides each duration and multiplies
each rate by the slowness of the interval it was measured in, so
time-based metrics read in reference-box time.  The work never changes:
changing it would rescale every metric.
"""

from __future__ import annotations

import statistics
import threading
import time

#: CPU seconds of one sample on the reference box in a calm minute.
REFERENCE_S = 0.0018
INTERVAL_S = 0.2


class _Node:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict, children: list) -> None:
        self.tag = tag
        self.attrs = attrs
        self.children = children


def _render(node: _Node, parts: list) -> None:
    parts.append(f"<{node.tag}")
    for key, value in node.attrs.items():
        parts.append(f' {key}="{value}"')
    parts.append(">")
    for child in node.children:
        if isinstance(child, str):
            parts.append(child)
        else:
            _render(child, parts)
    parts.append(f"</{node.tag}>")


def _table() -> float:
    rows = [
        _Node("tr", {"class": "row", "data-i": str(i)}, [
            _Node("td", {"class": "price"}, [f"{i * 1.37:.2f} EUR"]),
            _Node("td", {}, [f"item {i}"]),
        ])
        for i in range(60)
    ]
    parts: list = []
    _render(_Node("table", {"id": "t"}, rows), parts)
    html = "".join(parts)
    return sum(float(cell.split(" ")[0]) for cell in html.split('price">')[1:])


def sample() -> float:
    """Thread CPU seconds for one fixed unit of work."""
    start = time.thread_time()
    for _ in range(4):
        _table()
    return time.thread_time() - start


class BoxSpeed(threading.Thread):
    """Samples :func:`sample` every :data:`INTERVAL_S` until stopped."""

    def __init__(self) -> None:
        super().__init__(name="perfbench-boxspeed", daemon=True)
        #: (``time.perf_counter()`` when taken, CPU seconds) per sample.
        self.samples: list[tuple[float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(INTERVAL_S):
            cpu = sample()
            self.samples.append((time.perf_counter(), cpu))

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def slowness(self, start: float = float("-inf"),
                 end: float = float("inf")) -> float:
        """Mean sample taken in [start, end] over :data:`REFERENCE_S`.

        1.0 is the reference box; 1.2 means 20% slower.  An interval with
        fewer than three samples is judged by the whole run so far.
        """
        inside = [cpu for at, cpu in self.samples if start <= at <= end]
        if len(inside) < 3:
            inside = [cpu for _, cpu in self.samples] or [sample()]
        return statistics.fmean(inside) / REFERENCE_S
