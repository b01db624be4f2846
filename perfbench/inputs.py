"""Seeded input generators: the serve request stream and the analyze file.

Both depend on the seed alone and never import the program, so their
bytes are the same on every commit.  They run before anything is timed.
"""

from __future__ import annotations

import bisect
import json
import random

#: The crawled retailers of the CLI's default ``repro serve`` world
#: (``--scale tiny``, seed 2013), with their crowd popularity weights and
#: catalog sizes.  Fixed here so the stream cannot drift with the program.
RETAILERS: tuple[tuple[str, float, int], ...] = (
    ("www.amazon.com", 52.0, 29),
    ("www.hotels.com", 38.0, 20),
    ("www.misssixty.com", 24.0, 9),
    ("www.energie.it", 21.0, 9),
    ("www.tuscanyleather.it", 14.0, 8),
    ("www.guess.eu", 13.0, 9),
    ("www.net-a-porter.com", 10.0, 10),
    ("www.autotrader.com", 9.0, 20),
    ("www.mauijim.com", 7.5, 9),
    ("store.refrigiwear.it", 7.0, 8),
    ("store.murphynye.com", 6.0, 8),
    ("www.elnaturalista.com", 5.5, 9),
    ("www.kobobooks.com", 4.5, 20),
    ("www.luisaviaroma.com", 4.0, 10),
    ("store.killah.com", 3.5, 8),
    ("www.digitalrev.com", 3.0, 20),
    ("www.scitec-nutrition.es", 2.8, 12),
    ("www.bookdepository.co.uk", 2.2, 20),
    ("www.chainreactioncycles.com", 0.6, 20),
    ("www.homedepot.com", 0.6, 20),
    ("www.rightstart.com", 0.5, 20),
)

#: Products per retailer that the stream asks about: a small hot set.
HOT_PRODUCTS = 4


def serve_stream(seed: int, n_checks: int) -> list[dict]:
    """``POST /checks`` bodies: popularity-weighted retailer, hot product."""
    rng = random.Random(f"serve-stream/{seed}")
    cumulative, total = [], 0.0
    for _, weight, _ in RETAILERS:
        total += weight
        cumulative.append(total)
    stream = []
    for _ in range(n_checks):
        pick = bisect.bisect_right(cumulative, rng.random() * total)
        domain, _, catalog = RETAILERS[min(pick, len(RETAILERS) - 1)]
        product = int(rng.random() * min(HOT_PRODUCTS, catalog))
        stream.append({"domain": domain, "product": product})
    return stream


# ----------------------------------------------------------------------
# The analyze file: a crawl dataset in the row layout `repro crawl --out`
# writes (one header line, then one report object per line).
# ----------------------------------------------------------------------
#: How many paper crawls (21 retailers x 100 products x 7 days = 14,700
#: reports) the file holds.
CRAWL_MULTIPLE = 1
CRAWL_DAYS = 7
PRODUCTS_PER_RETAILER = 100

#: (vantage, country, city, currency) of the 14 measurement points.
VANTAGES: tuple[tuple[str, str, str, str], ...] = (
    ("Belgium - Liege", "BE", "Liege", "EUR"),
    ("Brazil - Sao Paulo", "BR", "Sao Paulo", "BRL"),
    ("Finland - Tampere", "FI", "Tampere", "EUR"),
    ("Germany - Berlin", "DE", "Berlin", "EUR"),
    ("Spain (Linux,FF)", "ES", "Barcelona", "EUR"),
    ("Spain (Mac,Safari)", "ES", "Barcelona", "EUR"),
    ("Spain (Win,Chrome)", "ES", "Barcelona", "EUR"),
    ("UK - London", "GB", "London", "GBP"),
    ("USA - Boston", "US", "Boston", "USD"),
    ("USA - Chicago", "US", "Chicago", "USD"),
    ("USA - Lincoln", "US", "Lincoln", "USD"),
    ("USA - Los Angeles", "US", "Los Angeles", "USD"),
    ("USA - New York", "US", "New York", "USD"),
    ("USA - Albany", "US", "Albany", "USD"),
)

#: USD per unit of each display currency, before the daily wobble.
USD_PER_UNIT = {"USD": 1.0, "EUR": 1.32, "GBP": 1.55, "BRL": 0.49}

#: Retailers that price by location: per-country premium over the base
#: price, applied to the products below the retailer's varied share.
DISCRIMINATING = {
    "www.amazon.com": {"FI": 1.18, "BR": 1.12, "GB": 1.06},
    "www.energie.it": {"FI": 1.30, "BE": 1.10, "DE": 1.10, "ES": 1.10},
    "www.misssixty.com": {"FI": 1.25, "GB": 1.15, "BR": 1.20},
    "www.tuscanyleather.it": {"US": 1.08, "FI": 1.22},
    "www.guess.eu": {"FI": 1.20, "DE": 1.05},
    "store.refrigiwear.it": {"FI": 1.35, "US": 1.10},
    "www.digitalrev.com": {"BR": 1.25, "FI": 1.10},
    "www.kobobooks.com": {"GB": 1.12, "FI": 1.16, "ES": 1.04},
}
VARIED_SHARE = 0.6

#: Retailers that show every visitor US dollars.
USD_ONLY = {"www.autotrader.com", "www.homedepot.com", "www.rightstart.com",
            "www.hotels.com", "www.chainreactioncycles.com"}

FAILURES = ("network: timeout (after 3 attempts)", "http 503",
            "anchor not found")
P_FAILED = 0.03


def _raw_text(amount: float, currency: str) -> str:
    cents = f"{amount:,.2f}"
    if currency == "EUR":
        return cents.replace(",", " ").replace(".", ",") + " €"
    if currency == "BRL":
        return "R$ " + cents.replace(",", " ").replace(".", ",")
    if currency == "GBP":
        return "£" + cents
    return "$" + cents


def crawl_rows(seed: int):
    """Header, then report dicts, in the order ``repro crawl`` emits them."""
    rng = random.Random(f"analyze-crawl/{seed}")
    days = CRAWL_DAYS * CRAWL_MULTIPLE
    n_reports = days * len(RETAILERS) * PRODUCTS_PER_RETAILER
    yield {"format": "repro-reports", "version": 1, "kind": "crawl",
           "layout": "rows", "reports": n_reports, "seed": seed}
    base = {
        (domain, product): (round(8.0 * (1.0 + 60.0 * rng.random() ** 3), 2),
                            rng.random() < VARIED_SHARE)
        for domain, _, _ in RETAILERS
        for product in range(PRODUCTS_PER_RETAILER)
    }
    number = 0
    for day in range(days):
        rate = {code: usd * (1.0 + 0.01 * (rng.random() - 0.5))
                for code, usd in USD_PER_UNIT.items()}
        for domain, _, _ in RETAILERS:
            premiums = DISCRIMINATING.get(domain, {})
            for product in range(PRODUCTS_PER_RETAILER):
                number += 1
                usd_base, varied = base[domain, product]
                observations = []
                for vantage, country, city, currency in VANTAGES:
                    if domain in USD_ONLY:
                        currency = "USD"
                    if rng.random() < P_FAILED:
                        observations.append({
                            "vantage": vantage, "country": country,
                            "city": city, "ok": False, "raw": "",
                            "amount": None, "currency": None, "usd": None,
                            "method": "",
                            "error": FAILURES[int(rng.random() * len(FAILURES))],
                        })
                        continue
                    usd = usd_base * (premiums.get(country, 1.0) if varied else 1.0)
                    amount = round(usd / USD_PER_UNIT[currency], 2)
                    observations.append({
                        "vantage": vantage, "country": country, "city": city,
                        "ok": True, "raw": _raw_text(amount, currency),
                        "amount": amount, "currency": currency,
                        "usd": round(amount * rate[currency], 4),
                        "method": "selector", "error": "",
                    })
                yield {
                    "check_id": f"chk{number:07d}",
                    "url": f"http://{domain}/product/P{product:05d}",
                    "domain": domain,
                    "day": day,
                    "ts": day * 86400.0 + number * 1.5,
                    "guard": 1.0108765354778908,
                    "origin": "crawler",
                    "observations": observations,
                }


def write_crawl_file(seed: int, path: str) -> dict:
    """Write the analyze input; returns its report/observation counts."""
    reports = observations = failed = 0
    with open(path, "w", encoding="utf-8") as fh:
        rows = crawl_rows(seed)
        fh.write(json.dumps(next(rows), separators=(",", ":")) + "\n")
        for row in rows:
            reports += 1
            observations += len(row["observations"])
            failed += sum(1 for obs in row["observations"] if not obs["ok"])
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    return {"reports": reports, "observations": observations,
            "failed_observations": failed}
