"""Market data: discount curves, index/tranche quote panels, payment dates.

All date arithmetic is ACT/365. Quote CSVs use basis points throughout;
upfront quotes are converted to fractions of tranche notional on load.
"""
from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

DAYS_PER_YEAR = 365.0
EQUITY_RUNNING_RATE = 0.05  # 500 bp fixed running premium for upfront-quoted tranches

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_MONTH_NUM = {name: i + 1 for i, name in enumerate(_MONTHS)}
# the is_upfront cells a quote CSV may hold, in any case
_UPFRONT_FLAGS = {"": False, "0": False, "false": False, "no": False,
                  "1": True, "true": True, "yes": True}


class MarketDataError(ValueError):
    """Raised for malformed or inconsistent market-data inputs."""


def parse_date(text: str) -> dt.date:
    """Parse 'DD-Mon-YY' or 'DD-Mon-YYYY' (e.g. '20-Dec-06')."""
    parts = text.strip().split("-")
    if len(parts) != 3 or parts[1] not in _MONTH_NUM:
        raise MarketDataError(f"unparseable date {text!r}, expected DD-Mon-YY")
    day, mon, year = parts
    y = int(year)
    if y < 100:
        y += 2000
    return dt.date(y, _MONTH_NUM[mon], int(day))


def format_date(d: dt.date) -> str:
    return f"{d.day:02d}-{_MONTHS[d.month - 1]}-{d.year % 100:02d}"


def year_fraction(valuation_date: dt.date, d: dt.date) -> float:
    """ACT/365 year fraction from the valuation date."""
    return (d - valuation_date).days / DAYS_PER_YEAR


def _parse_rate(text: str) -> float:
    text = text.strip()
    if text.endswith("%"):
        return float(text[:-1]) / 100.0
    return float(text)


@dataclass(frozen=True)
class DiscountCurve:
    """Zero curve of continuously-compounded spot rates, linear in the zero
    rate between pillars with flat extrapolation beyond both ends."""

    valuation_date: dt.date
    pillar_dates: tuple[dt.date, ...]
    zero_rates: tuple[float, ...]
    _times: np.ndarray = field(init=False, repr=False, compare=False)
    _rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.pillar_dates) == 0:
            raise MarketDataError("no pillars")
        if len(self.pillar_dates) != len(self.zero_rates):
            raise MarketDataError("pillar dates and rates differ in length")
        if any(b <= a for a, b in zip(self.pillar_dates, self.pillar_dates[1:])):
            raise MarketDataError("pillar dates must be strictly increasing")
        if not all(math.isfinite(r) for r in self.zero_rates):
            raise MarketDataError("zero rates must be finite")
        times = np.array([year_fraction(self.valuation_date, d) for d in self.pillar_dates])
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_rates", np.array(self.zero_rates, dtype=float))

    def zero_rate(self, t):
        """Interpolated zero rate at year fraction t (flat beyond the ends)."""
        return np.interp(t, self._times, self._rates)

    def discount_factor(self, t):
        """D(0, t) = exp(-r(t) * t) for t >= 0 (scalar or array)."""
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0):  # a nan fails this too
            raise MarketDataError("discount factor requested for negative time")
        out = np.exp(-self.zero_rate(t) * t)
        return float(out) if out.ndim == 0 else out


def _opened(source):
    """A context manager yielding a text handle: the file at path ``source``
    (text, bytes or ``os.PathLike``), closed on exit, or ``source`` itself,
    left open."""
    if isinstance(source, (str, bytes, os.PathLike)):
        return open(source, newline="")
    return contextlib.nullcontext(source)


def load_curve(source, valuation_date: dt.date) -> DiscountCurve:
    """Load a discount curve from CSV with header ``date,zero_rate``.

    Rates may be decimals ('0.0341') or percent-suffixed ('3.41%').
    """
    with _opened(source) as fh:
        reader = csv.reader(fh)
        dates, rates = [], []
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if lineno == 1 and row[0].strip().lower() == "date":
                continue
            if len(row) < 2:
                raise MarketDataError(f"line {lineno}: expected date,zero_rate")
            try:
                dates.append(parse_date(row[0]))
                rates.append(_parse_rate(row[1]))
            except (MarketDataError, ValueError) as exc:
                raise MarketDataError(f"line {lineno}: {exc}") from exc
        if not dates:
            raise MarketDataError("no pillars")
        return DiscountCurve(valuation_date, tuple(dates), tuple(rates))


@dataclass(frozen=True)
class IndexQuote:
    """Breakeven running spread quote for the whole pool, in basis points."""

    maturity: dt.date
    spread_bp: float
    bid_ask_width_bp: float

    def __post_init__(self):
        # written so that a nan fails them: every comparison with nan is false
        if not (0 < self.spread_bp < math.inf):
            raise MarketDataError(
                f"index spread must be positive and finite, got {self.spread_bp}")
        if not (0 < self.bid_ask_width_bp < math.inf):
            raise MarketDataError(
                f"bid-ask width must be positive and finite, got {self.bid_ask_width_bp}")


@dataclass(frozen=True)
class TrancheQuote:
    """Tranche quote: running spread in bp, or upfront fraction of tranche
    notional (with a fixed 500 bp running premium) when ``is_upfront``."""

    attachment: float
    detachment: float
    maturity: dt.date
    quote: float
    bid_ask_width: float
    is_upfront: bool = False
    running_premium_if_upfront: float = EQUITY_RUNNING_RATE

    def __post_init__(self):
        if not (0.0 <= self.attachment < self.detachment <= 1.0):
            raise MarketDataError(
                f"attachment/detachment must satisfy 0 <= A < B <= 1, "
                f"got {self.attachment}, {self.detachment}")
        if not math.isfinite(self.quote):
            raise MarketDataError(f"tranche quote must be finite, got {self.quote}")
        # an upfront may be negative; no model produces a running spread <= 0
        if not (self.is_upfront or self.quote > 0):
            raise MarketDataError(f"running tranche spread must be positive, got {self.quote}")
        if not (0 < self.bid_ask_width < math.inf):
            raise MarketDataError(
                f"bid-ask width must be positive and finite, got {self.bid_ask_width}")
        if not (0 <= self.running_premium_if_upfront < math.inf):
            raise MarketDataError(f"running premium must be non-negative and finite, "
                                  f"got {self.running_premium_if_upfront}")


@dataclass(frozen=True)
class QuotePanel:
    """Index and tranche quotes for one pool on one trade date."""

    pool_name: str
    valuation_date: dt.date
    index_quotes: tuple[IndexQuote, ...]
    tranche_quotes: tuple[TrancheQuote, ...]

    def __post_init__(self):
        for q in self.index_quotes + self.tranche_quotes:
            if q.maturity <= self.valuation_date:
                raise MarketDataError(f"maturity {q.maturity} not after valuation date")
        keys = [_quote_key(q) for q in self.index_quotes + self.tranche_quotes]
        if len(set(keys)) < len(keys):
            raise MarketDataError(f"two quotes of {_describe(max(keys, key=keys.count))}")

    @property
    def maturities(self) -> tuple[dt.date, ...]:
        dates = {q.maturity for q in self.index_quotes}
        dates.update(q.maturity for q in self.tranche_quotes)
        return tuple(sorted(dates))

    def __len__(self) -> int:
        return len(self.index_quotes) + len(self.tranche_quotes)

    def to_csv(self) -> str:
        """Canonical CSV emission; re-loading reproduces this byte-for-byte."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["pool", "maturity", "attach", "detach",
                    "quote_bp", "bid_ask_bp", "is_upfront"])
        for q in sorted(self.index_quotes, key=lambda q: q.maturity):
            w.writerow([self.pool_name, format_date(q.maturity), "", "",
                        _num(q.spread_bp), _num(q.bid_ask_width_bp), 0])
        for q in sorted(self.tranche_quotes,
                        key=lambda q: (q.attachment, q.detachment, q.maturity)):
            scale = 1e4 if q.is_upfront else 1.0  # upfronts stored as fractions
            w.writerow([self.pool_name, format_date(q.maturity),
                        _num(100 * q.attachment), _num(100 * q.detachment),
                        _num(q.quote * scale), _num(q.bid_ask_width * scale),
                        int(q.is_upfront)])
        return buf.getvalue()

    def to_json(self) -> str:
        """Canonical JSON of the parsed panel, for auditing."""
        doc = {
            "pool": self.pool_name,
            "valuation_date": self.valuation_date.isoformat(),
            "index_quotes": [
                {"maturity": q.maturity.isoformat(), "spread_bp": q.spread_bp,
                 "bid_ask_width_bp": q.bid_ask_width_bp}
                for q in self.index_quotes],
            "tranche_quotes": [
                {"maturity": q.maturity.isoformat(),
                 "attachment": q.attachment, "detachment": q.detachment,
                 "quote": q.quote, "bid_ask_width": q.bid_ask_width,
                 "is_upfront": q.is_upfront,
                 "running_premium_if_upfront": q.running_premium_if_upfront}
                for q in self.tranche_quotes],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _quote_key(q) -> tuple:
    """What a panel quotes once: an index maturity, or a tranche slice at a
    maturity."""
    if isinstance(q, IndexQuote):
        return (None, None, q.maturity)
    return (q.attachment, q.detachment, q.maturity)


def _describe(key: tuple) -> str:
    attachment, detachment, maturity = key
    if attachment is None:
        return f"the index at {format_date(maturity)}"
    return (f"the {_num(100 * attachment)}-{_num(100 * detachment)} tranche at "
            f"{format_date(maturity)}")


def _num(x: float) -> str:
    """Canonical decimal for round-trippable CSV output.

    Twelve significant digits absorb the roundoff of the bp/fraction unit
    conversions while exceeding any quoted precision, so emit -> load -> emit
    is byte-identical.
    """
    return f"{x:.12g}"


def load_quotes(source, valuation_date: dt.date) -> QuotePanel:
    """Load a quote panel from CSV with header
    ``pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront``.

    Index rows leave attach/detach empty. Attach/detach are percentage
    points. ``is_upfront`` is 0/1, true/false or yes/no in any case, or
    empty for not upfront; only tranche rows may be upfront. Upfront rows
    are quoted in bp of tranche notional and stored as fractions.
    """
    with _opened(source) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MarketDataError("empty quotes file")
        pool_name = ""
        index_quotes, tranche_quotes = [], []
        lines = {}  # the line of each quote's key
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 7:
                raise MarketDataError(f"line {lineno}: expected 7 columns")
            pool, mat, att, det, quote, width, upf = (c.strip() for c in row[:7])
            pool_name = pool or pool_name
            try:
                maturity = parse_date(mat)
                if width == "":
                    raise MarketDataError("missing bid_ask width")
                width_v = float(width)
                quote_v = float(quote)
                if (att == "") != (det == ""):
                    raise MarketDataError("attach/detach must both be set or both empty")
                is_upfront = _UPFRONT_FLAGS.get(upf.lower())
                if is_upfront is None:
                    raise MarketDataError(f"is_upfront must be 0/1, true/false, yes/no "
                                          f"or empty, got {upf!r}")
                if att == "":
                    if is_upfront:
                        raise MarketDataError("an index quote cannot be upfront")
                    index_quotes.append(IndexQuote(maturity, quote_v, width_v))
                else:
                    scale = 1e-4 if is_upfront else 1.0
                    tranche_quotes.append(TrancheQuote(
                        attachment=float(att) / 100.0,
                        detachment=float(det) / 100.0,
                        maturity=maturity,
                        quote=quote_v * scale,
                        bid_ask_width=width_v * scale,
                        is_upfront=is_upfront,
                    ))
            except (MarketDataError, ValueError) as exc:
                raise MarketDataError(f"line {lineno}: {exc}") from exc
            key = _quote_key(index_quotes[-1] if att == "" else tranche_quotes[-1])
            if key in lines:
                raise MarketDataError(f"lines {lines[key]} and {lineno} both quote "
                                      f"{_describe(key)}")
            lines[key] = lineno
        return QuotePanel(pool_name, valuation_date,
                          tuple(index_quotes), tuple(tranche_quotes))


def roll_weekend(d: dt.date) -> dt.date:
    """Move Saturday/Sunday to the following Monday."""
    if d.weekday() == 5:
        return d + dt.timedelta(days=2)
    if d.weekday() == 6:
        return d + dt.timedelta(days=1)
    return d


def quarterly_payment_dates(valuation_date: dt.date, maturity: dt.date) -> list[dt.date]:
    """Quarterly 20th of Mar/Jun/Sep/Dec, weekend-rolled, in (valuation, maturity]."""
    out = []
    for year in range(valuation_date.year, maturity.year + 1):
        for month in (3, 6, 9, 12):
            d = roll_weekend(dt.date(year, month, 20))
            if valuation_date < d <= maturity:
                out.append(d)
    if not out or out[-1] != maturity:
        out.append(maturity)  # off-grid maturity becomes the final payment
    return out
