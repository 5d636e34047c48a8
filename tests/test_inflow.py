import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patientflow import codec
from patientflow.domain import ArrivalSeries, bucketize
from patientflow.errors import ConfigError, DataError
from patientflow.inflow import (
    HW_GRID,
    CalendarTerm,
    ForecasterSpec,
    HoltWinters,
    InflowModel,
    default_calendar,
    evaluate,
    fit_holt_winters,
    fit_lag_regression,
    fit_poisson,
    fit_seasonal_naive,
    forecast,
)
from patientflow.seeding import stream
from patientflow.synthehr import GeneratorConfig, generate

from conftest import flat_generator_dict


def series_of(counts, width=1.0):
    return ArrivalSeries(width, 0.0, tuple(counts))


def held_out(series, n_head, specs):
    """Each spec fitted on the first n_head buckets and scored on the rest."""
    head = ArrivalSeries(series.bucket_width, series.start_time, series.counts[:n_head])
    tail = series.counts[n_head:]
    return {name: evaluate(forecast(spec.fit(head), len(tail)), tail)
            for name, spec in specs.items()}


# --- Poisson baseline --------------------------------------------------------

def test_fit_poisson_mean():
    model = fit_poisson(series_of([3, 3, 3]))
    assert model.lam == 3.0
    assert not model.degenerate


def test_fit_poisson_degenerate():
    model = fit_poisson(series_of([0, 0]))
    assert model.lam == 0.0
    assert model.degenerate


def test_fit_poisson_recovers_rate():
    counts = stream(42).poisson(7.0, size=10_000)
    model = fit_poisson(series_of(int(c) for c in counts))
    assert 6.8 <= model.lam <= 7.2


# --- Holt-Winters --------------------------------------------------------------

SEASON = (3, -1, 2, -2, 0, -2)  # integer offsets summing to 0
M = len(SEASON)


def noiseless_series(n):
    return series_of([10 + SEASON[t % M] for t in range(n)])


def reference_hw(y, m, alpha, beta, gamma):
    """Independent re-statement of the smoothing recursion."""
    level = float(np.mean(y[:m]))
    trend = float((np.mean(y[m:2 * m]) - np.mean(y[:m])) / m)
    seasonal = [v - level for v in y[:m]]
    shift = sum(seasonal) / m
    seasonal = [s - shift for s in seasonal]
    errors = []
    for t in range(m, len(y)):
        s_prev = seasonal[t % m]
        errors.append(y[t] - (level + trend + s_prev))
        new_level = alpha * (y[t] - s_prev) + (1 - alpha) * (level + trend)
        trend = beta * (new_level - level) + (1 - beta) * trend
        seasonal[t % m] = gamma * (y[t] - new_level) + (1 - gamma) * s_prev
        level = new_level
    return level, trend, seasonal, errors


def test_hw_noiseless_exact_forecasts():
    n = 60
    model = fit_holt_winters(noiseless_series(n), M, 0.3, 0.2, 0.4)
    fc = forecast(model, 12)
    expected = [10 + SEASON[(n + h - 1 + 1 - 1) % M] for h in range(1, 13)]
    assert np.allclose(fc, [10 + SEASON[(n + h - 1) % M] for h in range(1, 13)],
                       atol=1e-9)
    assert np.allclose(fc, expected, atol=1e-9)


def test_hw_matches_reference_recursion():
    y = [int(v) for v in stream(7).poisson(20.0, size=48)]
    model = fit_holt_winters(series_of(y), M, 0.4, 0.2, 0.3)
    level, trend, seasonal, _ = reference_hw(y, M, 0.4, 0.2, 0.3)
    assert model.level == pytest.approx(level, abs=1e-12)
    assert model.trend == pytest.approx(trend, abs=1e-12)
    assert np.allclose(model.seasonal, seasonal, atol=1e-12)


def scalar_hw_run(y, m, alpha, beta, gamma):
    """The one-triple recursion ``fit_holt_winters`` ran before it ran every
    triple through the grid's vectorised recursion: final level, trend and
    seasonal state."""
    y = np.asarray(y, dtype=float)
    level = float(np.mean(y[:m]))
    trend = float((np.mean(y[m:2 * m]) - np.mean(y[:m])) / m)
    seasonal = y[:m] - level
    seasonal = seasonal - seasonal.mean()
    for t in range(m, len(y)):
        j = t % m
        s_prev = seasonal[j]
        new_level = alpha * (y[t] - s_prev) + (1.0 - alpha) * (level + trend)
        trend = beta * (new_level - level) + (1.0 - beta) * trend
        seasonal[j] = gamma * (y[t] - new_level) + (1.0 - gamma) * s_prev
        level = new_level
    return level, trend, tuple(float(v) for v in seasonal)


UNIT_OR_NONE = st.one_of(st.floats(0.0, 1.0), st.none())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(0, 30),
       st.tuples(UNIT_OR_NONE, UNIT_OR_NONE, UNIT_OR_NONE))
def test_hw_state_keeps_the_bits_of_the_scalar_recursion(seed, m, extra, triple):
    """Each smoothing parameter given is kept and each one omitted is
    grid-searched; the fitted state is the scalar recursion's, bit for
    bit, at the fit's (alpha, beta, gamma)."""
    y = [int(v) for v in stream(seed).poisson(15.0, size=2 * m + extra)]
    model = fit_holt_winters(series_of(y), m, *triple)
    for fitted, asked in zip((model.alpha, model.beta, model.gamma), triple):
        assert fitted == asked if asked is not None else fitted in HW_GRID
    expected = scalar_hw_run(y, m, model.alpha, model.beta, model.gamma)
    assert (model.level, model.trend, model.seasonal) == expected


def test_hw_constant_series_state():
    model = fit_holt_winters(series_of([5] * 40), M)
    assert model.level == pytest.approx(5.0)
    assert model.trend == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(model.seasonal, 0.0, atol=1e-12)
    assert forecast(model, 4) == pytest.approx([5.0] * 4)


def test_hw_seasonal_components_centered_after_init():
    model = fit_holt_winters(noiseless_series(60), M, 0.3, 0.2, 0.4)
    assert abs(sum(model.seasonal)) < 1e-6


def test_hw_one_step_errors_vanish_on_noiseless_series():
    y = [10 + SEASON[t % M] for t in range(8 * M)]
    _, _, _, errors = reference_hw(y, M, 0.5, 0.3, 0.2)
    assert max(abs(e) for e in errors[M:]) <= 1e-6


def test_hw_too_short():
    with pytest.raises(DataError, match="need at least 2m=12 buckets, got 11"):
        fit_holt_winters(series_of([1] * 11), 6)


def test_hw_grid_search_beats_seasonal_naive_in_sample():
    t = np.arange(480)
    y = np.rint(50 + 0.02 * t + 12 * np.sin(2 * np.pi * t / 24)).astype(int)
    model = fit_holt_winters(series_of(int(v) for v in y), 24)
    _, _, _, errors = reference_hw([float(v) for v in y], 24,
                                   model.alpha, model.beta, model.gamma)
    rmse_hw = math.sqrt(np.mean(np.square(errors)))
    naive_errors = y[24:] - y[:-24]
    rmse_naive = math.sqrt(np.mean(np.square(naive_errors)))
    assert rmse_hw < rmse_naive


# --- lag regression -------------------------------------------------------------

def test_lag_regression_constant_series():
    # with the tiny ridge damping the lag coefficient approaches 1 as the
    # level grows (the intercept column absorbs c/(1+c^2) of the fit)
    model = fit_lag_regression(series_of([5000] * 60), (1,))
    assert model.coef[1] == pytest.approx(1.0, abs=1e-6)
    assert forecast(model, 5) == pytest.approx([5000.0] * 5, abs=1e-6)


def test_lag_regression_weekly_one_hots_exact():
    pattern = [12, 9, 14, 11, 8, 3, 2]
    y = [pattern[t % 7] for t in range(70)]
    model = fit_lag_regression(series_of(y, width=24.0), (1,),
                               calendar=(CalendarTerm(7, 1),))
    fc = forecast(model, 14)
    expected = [pattern[(70 + j) % 7] for j in range(14)]
    assert np.allclose(fc, expected, atol=1e-4)


def test_lag_regression_stationarity_invariant():
    y = [int(v) for v in stream(9).poisson(15.0, size=200)]
    model = fit_lag_regression(series_of(y), (1, 7), calendar=(CalendarTerm(7, 1),))
    max_lag = max(model.lags)
    arr = np.asarray(y, dtype=float)
    rows = []
    for t in range(max_lag, len(arr)):
        row = [1.0] + [arr[t - lag] for lag in model.lags]
        phase = t % 7
        row.extend(1.0 if phase == p else 0.0 for p in range(1, 7))
        row.append(t / len(arr))
        rows.append(row)
    X = np.asarray(rows)
    resid = arr[max_lag:] - X @ np.asarray(model.coef)
    assert np.max(np.abs(X.T @ resid)) <= 1e-6 * np.max(np.abs(arr))


def test_lag_regression_beats_poisson_on_seasonal_series():
    d = flat_generator_dict(seed=31, horizon=1680.0, base_rate=12.0)
    d["weekly_profile"] = [1.3, 1.25, 1.2, 1.1, 1.0, 0.6, 0.55]
    result = generate(GeneratorConfig.from_dict(d))
    series = bucketize(result.log, 24.0, 0.0, 1680.0)
    reports = held_out(series, 56, {
        "poisson": ForecasterSpec(kind="poisson"),
        "lagreg": ForecasterSpec(kind="lag_regression", lags=(1, 7),
                                 calendar=(CalendarTerm(7, 1),)),
    })
    assert reports["lagreg"].mape_percent < reports["poisson"].mape_percent


# --- forecast dispatch -----------------------------------------------------------

def test_forecast_poisson():
    assert forecast(fit_poisson(series_of([4, 4])), 3) == [4.0, 4.0, 4.0]
    # one-step forecast equals the series mean exactly
    counts = [3, 1, 4, 1, 5]
    assert forecast(fit_poisson(series_of(counts)), 1) == [sum(counts) / len(counts)]


def test_forecast_seasonal_naive_cycles():
    model = fit_seasonal_naive(series_of([9, 9, 9, 1, 2, 3]), 3)
    assert forecast(model, 4) == [1.0, 2.0, 3.0, 1.0]


def test_forecast_clamps_at_zero():
    model = HoltWinters(alpha=0.5, beta=0.5, gamma=0.5, m=4, level=1.0,
                        trend=-5.0, seasonal=(0.0, 0.0, 0.0, 0.0), phase=0)
    assert all(v >= 0.0 for v in forecast(model, 10))
    assert forecast(model, 10)[-1] == 0.0


def test_forecast_finite_for_fitted_models():
    y = [int(v) for v in stream(12).poisson(6.0, size=80)]
    models = [
        fit_poisson(series_of(y)),
        fit_seasonal_naive(series_of(y), 7),
        fit_holt_winters(series_of(y), 7, 0.3, 0.1, 0.2),
        fit_lag_regression(series_of(y), (1, 7)),
    ]
    for model in models:
        values = forecast(model, 50)
        assert all(math.isfinite(v) and v >= 0.0 for v in values)


# --- metrics ---------------------------------------------------------------------

def test_evaluate_arithmetic_example():
    report = evaluate([110.0, 90.0], [100.0, 100.0])
    assert report.mae == pytest.approx(10.0)
    assert report.rmse == pytest.approx(10.0)
    assert report.mape_percent == pytest.approx(10.0)


def test_evaluate_perfect_prediction():
    report = evaluate([3.0, 5.0, 7.0], [3.0, 5.0, 7.0])
    assert report.mae == 0.0
    assert report.rmse == 0.0
    assert report.mape_percent == 0.0
    assert report.r == pytest.approx(1.0)
    assert not report.r_degenerate


def test_evaluate_perfect_correlation_half_scale():
    report = evaluate([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert report.r == pytest.approx(1.0)
    assert report.mape_percent == pytest.approx(50.0)


def test_evaluate_skips_zero_actuals():
    report = evaluate([1.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    assert report.n_skipped_zero_actual == 1
    assert report.mape_percent == pytest.approx(100.0 * (0.0 + 0.5) / 2)


def test_evaluate_errors():
    with pytest.raises(DataError, match="1 predictions vs 2 actuals"):
        evaluate([1.0], [1.0, 2.0])
    with pytest.raises(DataError, match="need at least 2 points"):
        evaluate([1.0], [1.0])
    with pytest.raises(DataError, match="every actual is zero"):
        evaluate([1.0, 2.0], [0.0, 0.0])


def test_evaluate_constant_side_degenerate_r():
    report = evaluate([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
    assert report.r == 0.0
    assert report.r_degenerate


def test_metric_report_invariant():
    y = stream(3).poisson(9.0, size=50)
    p = stream(4).poisson(9.0, size=50)
    report = evaluate([float(v) for v in p], [float(v) for v in y])
    assert report.rmse >= report.mae >= 0.0
    assert -1.0 <= report.r <= 1.0


@given(
    st.lists(st.integers(1, 60), min_size=3, max_size=30),
    st.integers(1, 40),
)
@settings(max_examples=60, deadline=None)
def test_evaluate_translation_covariance(actual, shift):
    rng = stream(5)
    predicted = [a + float(rng.integers(-3, 4)) for a in actual]
    base = evaluate(predicted, actual)
    moved = evaluate([p + shift for p in predicted], [a + shift for a in actual])
    assert moved.mae == pytest.approx(base.mae, abs=1e-9)
    assert moved.rmse == pytest.approx(base.rmse, abs=1e-9)
    if not base.r_degenerate and not moved.r_degenerate:
        assert moved.r == pytest.approx(base.r, abs=1e-9)


# --- held-out scoring -----------------------------------------------------------------

def all_specs():
    return {
        "poisson": ForecasterSpec(kind="poisson"),
        "seasonal_naive": ForecasterSpec(kind="seasonal_naive", m=7),
        "holt_winters": ForecasterSpec(kind="holt_winters", m=7, alpha=0.2,
                                       beta=0.1, gamma=0.2),
        "lag_regression": ForecasterSpec(kind="lag_regression", lags=(1, 7)),
    }


def test_backtest_constant_series():
    series = series_of([6] * 60)
    reports = held_out(series, 48, all_specs())
    for name, report in reports.items():
        assert report.mae <= 1e-6, name


def test_spec_calendar_default_follows_the_series_bucket_width():
    y = [int(v) for v in stream(3).poisson(8.0, size=60)]
    for width in (1.0, 24.0):
        model = ForecasterSpec(kind="lag_regression", lags=(1,)).fit(series_of(y, width))
        assert model.calendar == default_calendar(width)
    spec = ForecasterSpec(kind="lag_regression", lags=(1,), calendar=())
    assert spec.fit(series_of(y)).calendar == ()
    with pytest.raises(ConfigError, match="^calendar must be a list of terms or 'default', "
                                          "got 'weekly'$"):
        ForecasterSpec(kind="lag_regression", lags=(1,), calendar="weekly")


# --- serialization -------------------------------------------------------------------

def test_json_round_trip_preserves_forecasts():
    y = [int(v) for v in stream(13).poisson(8.0, size=60)]
    series = series_of(y)
    models = [
        fit_poisson(series),
        fit_seasonal_naive(series, 6),
        fit_holt_winters(series, 6, 0.3, 0.1, 0.2),
        fit_lag_regression(series, (1, 6), calendar=(CalendarTerm(6, 1),)),
    ]
    for model in models:
        clone = codec.read(InflowModel, codec.document(model), "model")
        assert forecast(clone, 12) == forecast(model, 12)
