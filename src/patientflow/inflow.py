"""Patient-inflow models: a homogeneous Poisson baseline and time-series
alternatives that pick up trend and seasonality, plus forecast metrics.

All fitters consume an ``ArrivalSeries`` and produce an immutable model;
``forecast`` turns a model into h non-negative expected counts per
bucket (conversion to integer arrivals is the simulation engine's job).

Holt-Winters is additive: counts can be zero and multiplicative
seasonality would divide by the level. Initialization is exact:

    level = mean(y[0:m])
    trend = (mean(y[m:2m]) - mean(y[0:m])) / m
    seasonal[j] = y[j] - level, then centered to sum 0

followed by the standard recursions

    l_t = alpha * (y_t - s_{t-m}) + (1 - alpha) * (l_{t-1} + b_{t-1})
    b_t = beta * (l_t - l_{t-1}) + (1 - beta) * b_{t-1}
    s_t = gamma * (y_t - l_t) + (1 - gamma) * s_{t-m}

On a noiseless additive seasonal series this reproduces the series
exactly from the first season onward, for any smoothing parameters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import codec
from .domain import BUCKETS_MAX, ArrivalSeries
from .errors import ConfigError, DataError
from .estimators import ridge_solve

HW_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))


def _check_smoothing(alpha, beta, gamma) -> None:
    """Reject a smoothing parameter outside [0, 1]; one not given (None) passes."""
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if v is not None and not 0.0 <= v <= 1.0:
            raise ConfigError(f"{name}={v} outside [0, 1]")


@codec.tagged("poisson")
@dataclass(frozen=True)
class HomogeneousPoisson:
    """Constant per-bucket rate, the stochastic-distribution baseline."""

    lam: float
    degenerate: bool = False  # set when fitted on an all-zero series

    def __post_init__(self):
        if self.lam < 0.0:
            raise ConfigError(f"HomogeneousPoisson lam must be >= 0, got {self.lam!r}")


@codec.tagged("seasonal_naive")
@dataclass(frozen=True)
class SeasonalNaive:
    """Repeats the last observed season."""

    m: int
    tail: tuple[float, ...]  # last m counts

    def __post_init__(self):
        if self.m < 2:
            raise ConfigError("seasonal period m must be >= 2")
        if len(self.tail) != self.m:
            raise ConfigError("tail length must equal m")


@codec.tagged("holt_winters")
@dataclass(frozen=True)
class HoltWinters:
    """Additive level + trend + seasonal state after smoothing."""

    alpha: float
    beta: float
    gamma: float
    m: int
    level: float
    trend: float
    seasonal: tuple[float, ...]  # indexed by (time index mod m)
    phase: int                   # n_observations mod m

    def __post_init__(self):
        _check_smoothing(self.alpha, self.beta, self.gamma)
        if self.m < 2:
            raise ConfigError("seasonal period m must be >= 2")
        if len(self.seasonal) != self.m:
            raise ConfigError(f"seasonal has {len(self.seasonal)} entries, m is {self.m}")
        if not (0 <= self.phase < self.m):
            raise ConfigError(f"phase {self.phase} outside [0, {self.m})")


@dataclass(frozen=True)
class CalendarTerm:
    """Cyclic one-hot feature: phase(t) = (t // phase_width) mod n_phases."""

    n_phases: int
    phase_width: int = 1

    def __post_init__(self):
        if self.n_phases < 1 or self.phase_width < 1:
            raise ConfigError("calendar n_phases and phase_width must be >= 1")

    def phase(self, t: int) -> int:
        return (t // self.phase_width) % self.n_phases


@codec.tagged("lag_regression")
@dataclass(frozen=True)
class LagRegression:
    """Least squares on lagged counts, calendar one-hots and a ramp.

    Regressors per bucket t: intercept, y[t - lag] for each lag,
    one-hot(phase) with first phase dropped per calendar term, and
    t / n_train. Fitted by ``estimators.ridge_solve``.
    """

    lags: tuple[int, ...]
    calendar: tuple[CalendarTerm, ...]
    coef: tuple[float, ...]  # [intercept, lag coefs, calendar coefs, ramp coef]
    n_train: int
    history: tuple[float, ...]  # last max(lags) observed counts

    def __post_init__(self):
        if not self.lags or min(self.lags) < 1:
            raise ConfigError("lags must be positive integers")
        width = _design_width(self.lags, self.calendar)
        if len(self.coef) != width:
            raise ConfigError(f"coef has {len(self.coef)} entries, lags and calendar "
                              f"imply {width}")
        if len(self.history) != max(self.lags):
            raise ConfigError(f"history has {len(self.history)} entries, "
                              f"max(lags) is {max(self.lags)}")
        if self.n_train < len(self.history):
            raise ConfigError(f"n_train {self.n_train} is shorter than the history")


InflowModel = Union[HomogeneousPoisson, SeasonalNaive, HoltWinters, LagRegression]
INFLOW_KINDS = codec.tags(InflowModel)  # the kinds fit and ForecasterSpec accept


@dataclass(frozen=True)
class MetricReport:
    """Forecast accuracy summary.

    MAPE skips points whose actual is zero and reports how many were
    skipped (rather than switching to a symmetric variant). r is Pearson
    correlation, forced to 0 with ``r_degenerate`` set when either side
    is constant.
    """

    mae: float
    rmse: float
    mape_percent: float
    r: float
    n_points: int
    n_skipped_zero_actual: int
    r_degenerate: bool = False


def fit_poisson(series: ArrivalSeries) -> HomogeneousPoisson:
    """Baseline: lambda is the arithmetic mean count per bucket."""
    counts = series.counts
    lam = sum(counts) / len(counts)
    return HomogeneousPoisson(lam=lam, degenerate=(lam == 0.0))


def fit_seasonal_naive(series: ArrivalSeries, m: int) -> SeasonalNaive:
    if len(series) < m:
        raise DataError(f"need at least m={m} buckets, got {len(series)}")
    return SeasonalNaive(m=m, tail=tuple(float(c) for c in series.counts[-m:]))


def _hw_smooth(
    y: np.ndarray, m: int, combos: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the recursion for each (alpha, beta, gamma) row of ``combos`` at
    once (it is sequential in t but vectorizes across the rows); returns
    each row's final level, trend and seasonal state and its in-sample
    one-step squared error."""
    a, b, g = combos[:, 0], combos[:, 1], combos[:, 2]
    level0 = float(np.mean(y[:m]))
    level = np.full(len(combos), level0)
    trend = np.full(len(combos), float((np.mean(y[m : 2 * m]) - level0) / m))
    seasonal0 = y[:m] - level0
    seasonal = np.tile(seasonal0 - seasonal0.mean(), (len(combos), 1))
    sse = np.zeros(len(combos))
    for t in range(m, len(y)):
        j = t % m
        s_prev = seasonal[:, j]
        err = y[t] - (level + trend + s_prev)
        sse += err * err
        new_level = a * (y[t] - s_prev) + (1.0 - a) * (level + trend)
        trend = b * (new_level - level) + (1.0 - b) * trend
        seasonal[:, j] = g * (y[t] - new_level) + (1.0 - g) * s_prev
        level = new_level
    return level, trend, seasonal, sse


def fit_holt_winters(
    series: ArrivalSeries,
    m: int,
    alpha: float | None = None,
    beta: float | None = None,
    gamma: float | None = None,
) -> HoltWinters:
    """Fit additive Holt-Winters with period m.

    A given smoothing parameter is kept; each one omitted is chosen by
    grid search over {0.1, ..., 0.9} minimizing in-sample one-step RMSE:
    the recursion runs for every candidate triple at once (729 when none
    is given) and the fit keeps the final state of the best one.
    """
    if m < 2:  # HoltWinters' own check, made before the recursion divides by m
        raise ConfigError("seasonal period m must be >= 2")
    y = np.asarray(series.counts, dtype=float)
    if len(y) < 2 * m:
        raise DataError(f"need at least 2m={2 * m} buckets, got {len(y)}")
    combos = np.array(list(itertools.product(
        *(HW_GRID if v is None else (v,) for v in (alpha, beta, gamma)))), dtype=float)
    level, trend, seasonal, sse = _hw_smooth(y, m, combos)
    best = int(np.argmin(sse))
    alpha, beta, gamma = (float(v) for v in combos[best])
    return HoltWinters(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        m=m,
        level=float(level[best]),
        trend=float(trend[best]),
        seasonal=tuple(float(s) for s in seasonal[best]),
        phase=len(y) % m,
    )


def default_calendar(bucket_width: float) -> tuple[CalendarTerm, ...]:
    """Hour-of-day and day-of-week terms appropriate for a bucket width."""
    if bucket_width == 1.0:
        return (CalendarTerm(24, 1), CalendarTerm(7, 24))
    if bucket_width == 24.0:
        return (CalendarTerm(7, 1),)
    return ()


def _design_width(lags: tuple[int, ...], calendar: tuple[CalendarTerm, ...]) -> int:
    """Regressors per row: intercept, lags, calendar one-hots, ramp."""
    return 1 + len(lags) + sum(t.n_phases - 1 for t in calendar) + 1


def _lag_design_row(
    t: int,
    value_at: Callable[[int], float],
    lags: tuple[int, ...],
    calendar: tuple[CalendarTerm, ...],
    n_train: int,
) -> list[float]:
    row = [1.0]
    row.extend(value_at(t - lag) for lag in lags)
    for term in calendar:
        phase = term.phase(t)
        row.extend(1.0 if phase == p else 0.0 for p in range(1, term.n_phases))
    row.append(t / n_train)
    return row


def fit_lag_regression(
    series: ArrivalSeries,
    lags: Sequence[int],
    calendar: Sequence[CalendarTerm] = (),
) -> LagRegression:
    y = np.asarray(series.counts, dtype=float)
    lags = tuple(sorted(set(int(l) for l in lags)))
    if not lags or min(lags) < 1:
        raise ConfigError("lags must be positive integers")
    calendar = tuple(calendar)
    n = len(y)
    max_lag = max(lags)
    width = _design_width(lags, calendar)
    if n - max_lag <= width:
        raise DataError(
            f"need more than max_lag + {width} = {max_lag + width} buckets, got {n}"
        )
    rows = [
        _lag_design_row(t, lambda i: y[i], lags, calendar, n)
        for t in range(max_lag, n)
    ]
    X = np.asarray(rows)
    coef = ridge_solve(X, y[max_lag:])
    return LagRegression(
        lags=lags,
        calendar=calendar,
        coef=tuple(float(c) for c in coef),
        n_train=n,
        history=tuple(float(v) for v in y[-max_lag:]),
    )


def forecast(model: InflowModel, h: int) -> list[float]:
    """Expected counts for the next h buckets, clamped at 0."""
    if not 1 <= h <= BUCKETS_MAX:
        raise ConfigError(f"forecast horizon h must be between 1 and {BUCKETS_MAX}, got {h}")
    if isinstance(model, HomogeneousPoisson):
        return [max(0.0, model.lam)] * h
    if isinstance(model, SeasonalNaive):
        return [max(0.0, model.tail[k % model.m]) for k in range(h)]
    if isinstance(model, HoltWinters):
        return [
            max(0.0, model.level + step * model.trend
                + model.seasonal[(model.phase + step - 1) % model.m])
            for step in range(1, h + 1)
        ]
    if isinstance(model, LagRegression):
        buf = list(model.history)
        base = model.n_train - len(buf)  # absolute bucket index of buf[0]
        out = []
        coef = np.asarray(model.coef)
        for step in range(h):
            t = model.n_train + step
            row = _lag_design_row(
                t, lambda i: buf[i - base], model.lags, model.calendar, model.n_train
            )
            value = max(0.0, float(coef @ np.asarray(row)))
            out.append(value)
            buf.append(value)
        return out
    raise ConfigError(f"unknown model type {type(model).__name__}")


def evaluate(predicted: Sequence[float], actual: Sequence[float]) -> MetricReport:
    """MAE, RMSE, MAPE (zero actuals skipped) and Pearson correlation."""
    if len(predicted) != len(actual):
        raise DataError(f"{len(predicted)} predictions vs {len(actual)} actuals")
    if len(actual) < 2:
        raise DataError("need at least 2 points")
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    err = p - a
    mae = float(np.mean(np.abs(err)))
    rmse = float(math.sqrt(np.mean(err * err)))
    nonzero = a > 0
    n_skipped = int(np.sum(~nonzero))
    if n_skipped == len(a):
        raise DataError("MAPE undefined: every actual is zero")
    mape = float(100.0 * np.mean(np.abs(err[nonzero]) / a[nonzero]))
    sp, sa = float(np.std(p)), float(np.std(a))
    degenerate = sp <= 1e-12 * (1.0 + abs(float(np.mean(p)))) or sa <= 1e-12 * (
        1.0 + abs(float(np.mean(a)))
    )
    if degenerate:
        r = 0.0
    else:
        r = float(np.corrcoef(p, a)[0, 1])
        r = max(-1.0, min(1.0, r))
    return MetricReport(
        mae=mae,
        rmse=rmse,
        mape_percent=mape,
        r=r,
        n_points=len(a),
        n_skipped_zero_actual=n_skipped,
        r_degenerate=degenerate,
    )


@dataclass(frozen=True)
class ForecasterSpec:
    """Declarative choice of inflow model, used by the experiment and the CLI."""

    kind: str  # one of INFLOW_KINDS
    m: int | None = None
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    lags: tuple[int, ...] = ()
    calendar: tuple[CalendarTerm, ...] | str = "default"  # "default": default_calendar(width)

    def __post_init__(self):
        if self.kind not in INFLOW_KINDS:
            raise ConfigError(f"unknown forecaster kind {self.kind!r}, expected one of "
                              f"{', '.join(INFLOW_KINDS)}")
        if self.kind in ("seasonal_naive", "holt_winters") and self.m is None:
            raise ConfigError(f"{self.kind} requires m")
        if self.kind == "lag_regression" and not self.lags:
            raise ConfigError("lag_regression requires lags")
        if isinstance(self.calendar, str) and self.calendar != "default":
            raise ConfigError(f"calendar must be a list of terms or 'default', "
                              f"got {self.calendar!r}")
        _check_smoothing(self.alpha, self.beta, self.gamma)

    def fit(self, series: ArrivalSeries) -> InflowModel:
        if self.kind == "poisson":
            return fit_poisson(series)
        if self.kind == "seasonal_naive":
            return fit_seasonal_naive(series, self.m)
        if self.kind == "holt_winters":
            return fit_holt_winters(series, self.m, self.alpha, self.beta, self.gamma)
        calendar = self.calendar
        if calendar == "default":
            calendar = default_calendar(series.bucket_width)
        return fit_lag_regression(series, self.lags, calendar)
