import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patientflow import codec, estimators, pathways
from patientflow.errors import DataError
from patientflow.estimators import (
    DEFAULT_CATEGORICAL,
    DEFAULT_NUMERIC,
    TARGET_COT,
    TARGET_LOS,
    CategoricalFeature,
    ConditionalModel,
    FeatureSpec,
    LognormalFit,
    NumericFeature,
    RegressionTree,
    TreeLeaf,
    TreeSplit,
    build_feature_spec,
    draw_z,
    fit_conditional,
    fit_gamma_mom,
    fit_lognormal,
    fit_mixture_em,
    fit_tree,
    fit_weibull,
    ks_statistic,
    locations,
    sampler,
)
from patientflow.seeding import blocks, stream

from conftest import Row, split_stays, table


def profile(pid="P", age=50, gender="F", com=1, drg="ACS"):
    return Row(pid, age, gender, com, drg)


def predict_mean(model: ConditionalModel, profile) -> float:
    """Mean target of a one-row ``Profiles``: exp(linear predictor +
    residual_sigma^2 / 2).

    The half-variance term is the lognormal mean correction. Cost models
    additionally undo the +1 shift and clamp at zero.
    """
    lp = locations(model, profile)[0][0]
    mean_ln_scale = math.exp(lp + 0.5 * model.residual_sigma**2)
    if model.target_kind == TARGET_COT:
        return max(0.0, mean_ln_scale - 1.0)
    return mean_ln_scale


# --- lognormal -----------------------------------------------------------------

def test_lognormal_degenerate_sample():
    fit = fit_lognormal([math.e**2] * 3)
    assert fit.mu == pytest.approx(2.0)
    assert fit.sigma == pytest.approx(0.0, abs=1e-15)
    assert fit.degenerate
    assert math.isfinite(fit.loglik)


def test_lognormal_two_points():
    fit = fit_lognormal([math.e, math.e**3])
    assert fit.mu == pytest.approx(2.0)
    assert fit.sigma == pytest.approx(1.0)


def test_lognormal_recovery():
    x = np.exp(stream(1).normal(1.0, 0.5, size=5000))
    fit = fit_lognormal(x)
    assert 0.95 <= fit.mu <= 1.05
    assert 0.47 <= fit.sigma <= 0.53


def test_lognormal_scale_equivariance():
    x = np.exp(stream(2).normal(0.5, 0.3, size=400))
    base = fit_lognormal(x)
    for c in (0.25, 3.0, 1000.0):
        scaled = fit_lognormal(c * x)
        assert scaled.mu == pytest.approx(base.mu + math.log(c), abs=1e-12)
        assert scaled.sigma == pytest.approx(base.sigma, abs=1e-12)


def test_lognormal_rejects_bad_input():
    with pytest.raises(DataError, match="all observations must be > 0"):
        fit_lognormal([1.0, -2.0])
    with pytest.raises(DataError, match="need at least 2 observations, got 1"):
        fit_lognormal([1.0])


# --- gamma and weibull ------------------------------------------------------------

def test_gamma_mom_exact_moments():
    a = math.sqrt(18.0)  # sample mean 6, population variance 12
    fit = fit_gamma_mom([6.0 - a, 6.0, 6.0 + a])
    assert fit.shape == pytest.approx(3.0, rel=1e-12)
    assert fit.scale == pytest.approx(2.0, rel=1e-12)


def test_gamma_mom_recovery():
    x = stream(3).gamma(3.0, 2.0, size=10_000)
    fit = fit_gamma_mom(x)
    assert 2.8 <= fit.shape <= 3.2


def test_gamma_zero_variance():
    with pytest.raises(DataError, match="sample variance must be positive"):
        fit_gamma_mom([2.0, 2.0, 2.0])


def test_weibull_recovers_exponential():
    # Weibull with shape 1 is exponential; mean-2 draws recover (1, 2)
    x = stream(4).exponential(2.0, size=10_000)
    fit = fit_weibull(x)
    assert fit.converged
    assert 0.95 <= fit.shape <= 1.05
    assert 1.9 <= fit.scale <= 2.1


def test_weibull_recovery_general_shape():
    x = 3.0 * stream(5).weibull(2.5, size=10_000)
    fit = fit_weibull(x)
    assert fit.converged
    assert 2.4 <= fit.shape <= 2.6
    assert 2.9 <= fit.scale <= 3.1


def test_univariate_loglik_ordering_on_lognormal_data():
    # on lognormal data the lognormal fit should dominate in likelihood
    x = np.exp(stream(6).normal(2.0, 0.6, size=4000))
    assert fit_lognormal(x).loglik > fit_gamma_mom(x).loglik
    assert fit_lognormal(x).loglik > fit_weibull(x).loglik


# --- mixtures -----------------------------------------------------------------------

def test_em_k1_matches_lognormal():
    x = np.exp(stream(7).normal(1.5, 0.4, size=600))
    em = fit_mixture_em(x, 1, seed=0)
    ln = fit_lognormal(x)
    comp = em.components[0]
    assert comp.weight == pytest.approx(1.0, abs=1e-12)
    assert comp.mu == pytest.approx(ln.mu, abs=1e-9)
    assert comp.sigma == pytest.approx(ln.sigma, abs=1e-9)
    assert em.loglik == pytest.approx(ln.loglik, abs=1e-6)


def test_em_two_component_recovery():
    rng = stream(77)
    n = 2000
    comp = rng.random(n) < 0.5
    x = np.where(comp, np.exp(rng.normal(0.0, 0.2, n)), np.exp(rng.normal(2.0, 0.2, n)))
    fit = fit_mixture_em(x, 2, seed=11)
    mus = [c.mu for c in fit.components]
    weights = [c.weight for c in fit.components]
    assert abs(mus[0] - 0.0) <= 0.1
    assert abs(mus[1] - 2.0) <= 0.1
    assert abs(weights[0] - 0.5) <= 0.08
    assert abs(weights[1] - 0.5) <= 0.08


def test_em_trace_monotone():
    for seed in (1, 2, 3):
        x = np.exp(stream(seed).normal(1.0, 0.8, size=400))
        fit = fit_mixture_em(x, 3, seed=seed)
        diffs = np.diff(fit.trace)
        assert np.all(diffs >= -1e-9)


# float.hex of every component and trace entry, recorded from the EM that kept
# its responsibilities as (n, k) arrays and summed them with numpy's axis
# reductions; the one-array-per-component EM must add in the same order.
EM_GOLDEN = json.loads((Path(__file__).parent / "em_golden.json").read_text())
EM_CASES = {
    "k1": dict(k=1, seed=0),
    "k2-tol": dict(k=2, seed=1),
    "k3-max-iter": dict(k=3, seed=1, max_iter=30),
    "k4-max-iter": dict(k=4, seed=2, max_iter=30),
}


@pytest.mark.parametrize("case", EM_CASES)
def test_em_golden_bits(case):
    x = np.concatenate([stream(61).lognormal(1.0, 0.4, 150),
                        stream(62).lognormal(2.5, 0.5, 100)])
    fit = fit_mixture_em(x, **EM_CASES[case])
    expected = EM_GOLDEN[case]
    assert [[c.weight.hex(), c.mu.hex(), c.sigma.hex()]
            for c in fit.components] == expected["components"]
    assert fit.loglik.hex() == expected["loglik"]
    assert [t.hex() for t in fit.trace] == expected["trace"]
    # the cases cover both ways EM stops: at tol and at max_iter
    stops_at_cap = len(fit.trace) == EM_CASES[case].get("max_iter", 500)
    assert stops_at_cap is case.endswith("max-iter")


def test_em_requires_enough_data():
    with pytest.raises(DataError, match="need at least 10 observations, got 3"):
        fit_mixture_em([1.0, 2.0, 3.0], 2, seed=0)


# --- conditional regression -----------------------------------------------------------

def age_sweep_profiles(n=400, seed=9):
    rng = stream(seed)
    return [
        profile(f"P{i}", age=int(rng.integers(20, 91)), gender="F", com=1, drg="ACS")
        for i in range(n)
    ]


def test_conditional_recovers_exact_log_linear_target():
    profiles = age_sweep_profiles()
    targets = [math.exp(3.0 + 2.0 * p.age / 100.0) for p in profiles]
    model = fit_conditional(table(profiles), targets, TARGET_LOS)
    assert model.residual_sigma == pytest.approx(0.0, abs=1e-9)
    held_out = age_sweep_profiles(n=100, seed=10)
    for p in held_out:
        expected_ln = 3.0 + 2.0 * p.age / 100.0
        got = predict_mean(model, table([p]))
        assert abs(math.log(got) - expected_ln) <= 1e-6


def test_conditional_constant_target():
    profiles = age_sweep_profiles(n=100)
    model = fit_conditional(table(profiles), [48.0] * 100, TARGET_LOS)
    assert model.constant_target
    assert model.coef[0] == pytest.approx(math.log(48.0), abs=1e-6)
    assert max(abs(c) for c in model.coef[1:]) <= 1e-6
    assert model.residual_sigma <= 1e-9


def test_conditional_out_of_sample_rmse_near_noise_floor(default_oracle,
                                                         default_generator):
    # the generator is log-linear in the encoded attributes, so the fitted
    # model's held-out ln-RMSE approaches sigma_ln
    sigma_ln = default_generator.los_coeffs.sigma_ln
    (train, train_y), (test, test_y) = split_stays(default_oracle, 3360.0)
    model = fit_conditional(train, train_y, TARGET_LOS)
    spec = model.feature_spec
    X = spec.encode_all(test)[0]
    resid = np.log(test_y) - X @ np.asarray(model.coef)
    rmse = float(np.sqrt(np.mean(resid**2)))
    assert rmse <= 1.05 * sigma_ln


def test_conditional_normal_equation_stationarity():
    rng = stream(31)
    profiles = [
        profile(f"P{i}", age=int(rng.integers(20, 91)),
                gender="F" if rng.random() < 0.5 else "M",
                com=int(rng.integers(0, 8)),
                drg=("ACS", "HF", "ARR")[int(rng.integers(3))])
        for i in range(500)
    ]
    targets = [math.exp(rng.normal(3.0 + 0.01 * p.age, 0.5)) for p in profiles]
    model = fit_conditional(table(profiles), targets, TARGET_LOS)
    X = model.feature_spec.encode_all(table(profiles))[0]
    y = np.log(targets)
    resid = y - X @ np.asarray(model.coef)
    assert np.max(np.abs(X.T @ resid)) <= 1e-6 * np.max(np.abs(y))


def test_predict_mean_intercept_only():
    profiles = age_sweep_profiles(n=100)
    model = fit_conditional(table(profiles), [48.0] * 100, TARGET_LOS)
    assert predict_mean(model, table(profiles[:1])) == pytest.approx(48.0, rel=1e-6)


def test_predict_mean_matches_monte_carlo():
    profiles = age_sweep_profiles()
    rng = stream(11)
    targets = [math.exp(2.0 + 1.5 * p.age / 100.0 + rng.normal(0.0, 0.4))
               for p in profiles]
    model = fit_conditional(table(profiles), targets, TARGET_LOS)
    target_profile = table(profiles[:1])
    srng = stream(12)
    draw, loc = sampler(model), locations(model, target_profile)[0][0]
    draws = [draw(loc, srng) for _ in range(100_000)]
    assert np.mean(draws) == pytest.approx(predict_mean(model, target_profile),
                                           rel=0.02)


def test_cot_model_admits_zero_costs():
    profiles = age_sweep_profiles(n=120)
    rng = stream(13)
    targets = [max(0.0, rng.normal(30.0, 20.0)) for _ in profiles]
    assert min(targets) == 0.0
    model = fit_conditional(table(profiles), targets, TARGET_COT)
    draw, loc = sampler(model), locations(model, table(profiles[:1]))[0][0]
    draws = [draw(loc, stream(14)) for _ in range(10)]
    assert all(v >= 0.0 for v in draws)
    assert predict_mean(model, table(profiles[:1])) >= 0.0


def test_unseen_level_counts():
    profiles = [profile(f"P{i}", drg="ACS") for i in range(20)] + [
        profile(f"Q{i}", drg="HF") for i in range(20)
    ]
    targets = [10.0] * 40
    model = fit_conditional(table(profiles), targets, TARGET_LOS)
    predict_mean(model, table([profile("X", drg="NEW")]))
    assert locations(model, table([profile("X", drg="NEW")]))[1] == [1]


# --- sampling ---------------------------------------------------------------------------

def test_sample_deterministic_when_residual_zero():
    import dataclasses

    profiles = age_sweep_profiles(n=100)
    fitted = fit_conditional(table(profiles), [48.0] * 100, TARGET_LOS)
    model = dataclasses.replace(fitted, residual_sigma=0.0)
    rng = stream(15)
    draw, loc = sampler(model), locations(model, table(profiles[:1]))[0][0]
    draws = {draw(loc, rng) for _ in range(5)}
    assert len(draws) == 1
    assert draws.pop() == pytest.approx(48.0, rel=1e-9)


def test_sample_lognormal_median():
    fit = fit_lognormal(np.exp(stream(16).normal(0.0, 1.0, size=50_000)))
    rng, draw = stream(17), sampler(fit)
    draws = [draw(0.0, rng) for _ in range(100_000)]
    assert 0.97 <= float(np.median(draws)) <= 1.03


def test_sample_fixed_seed_reproducible():
    fit = fit_lognormal([1.0, 2.0, 3.0])
    draw = sampler(fit)
    a = [draw(0.0, stream(18)) for _ in range(5)]
    b = [draw(0.0, stream(18)) for _ in range(5)]
    assert a == b


def test_samplers_positive():
    x = stream(19).gamma(2.0, 3.0, size=500)
    models = [fit_lognormal(x), fit_gamma_mom(x), fit_weibull(x),
              fit_mixture_em(x, 2, seed=1)]
    rng = stream(20)
    for model in models:
        draw = sampler(model)
        assert all(draw(0.0, rng) > 0.0 for _ in range(200))


def test_mixture_sampling_matches_weights():
    fit = fit_mixture_em(
        np.concatenate([np.exp(stream(21).normal(0.0, 0.2, 1000)),
                        np.exp(stream(22).normal(3.0, 0.2, 3000))]),
        2, seed=2,
    )
    rng, draw = stream(23), sampler(fit)
    draws = np.array([draw(0.0, rng) for _ in range(20_000)])
    share_high = float(np.mean(np.log(draws) > 1.5))
    assert share_high == pytest.approx(0.75, abs=0.02)


# --- regression tree ---------------------------------------------------------------------

def test_tree_constant_target_single_leaf():
    profiles = age_sweep_profiles(n=60)
    tree = fit_tree(table(profiles), [12.0] * 60, max_depth=4, min_leaf=5)
    assert isinstance(tree.root, estimators.TreeLeaf)
    assert math.exp(locations(tree, table(profiles[:1]))[0][0]) == pytest.approx(
        12.0, rel=1e-12)


def test_tree_single_categorical_split_is_exact():
    profiles = [profile(f"P{i}", drg="ACS" if i % 2 == 0 else "HF")
                for i in range(40)]
    targets = [10.0 if p.drg == "ACS" else 80.0 for p in profiles]
    tree = fit_tree(table(profiles), targets, max_depth=5, min_leaf=2)
    assert isinstance(tree.root, estimators.TreeSplit)
    assert isinstance(tree.root.left, estimators.TreeLeaf)
    assert isinstance(tree.root.right, estimators.TreeLeaf)
    for loc, t in zip(locations(tree, table(profiles))[0], targets):
        assert math.exp(loc) == pytest.approx(t, rel=1e-12)


def test_tree_respects_min_leaf():
    rng = stream(24)
    profiles = age_sweep_profiles(n=300, seed=25)
    targets = [math.exp(rng.normal(2.0 + p.age / 100.0, 0.3)) for p in profiles]
    tree = fit_tree(table(profiles), targets, max_depth=6, min_leaf=25)

    def check(node):
        if isinstance(node, estimators.TreeLeaf):
            assert node.count >= 25
        else:
            check(node.left)
            check(node.right)

    check(tree.root)


def test_tree_beats_univariate_on_heterogeneous_data(default_oracle):
    (train, train_y), (test, test_y) = split_stays(default_oracle, 3360.0)
    tree = fit_tree(train.take(np.arange(20000)), train_y[:20000])
    ln_fit = fit_lognormal(train_y)
    ln_test = np.log(test_y[:8000])
    rmse_tree = float(np.sqrt(np.mean(
        [(loc - lt) ** 2
         for loc, lt in zip(locations(tree, test.take(np.arange(8000)))[0], ln_test)]
    )))
    rmse_uni = float(np.sqrt(np.mean((ln_test - ln_fit.mu) ** 2)))
    assert rmse_tree <= rmse_uni


def test_tree_too_little_data():
    with pytest.raises(DataError, match="need at least 40 rows, got 10"):
        fit_tree(table(age_sweep_profiles(n=10)), [1.0] * 10, min_leaf=20)


def test_tree_leaves_partition_training_points():
    # every training point reaches exactly one leaf whose stored mean is
    # the mean ln-target of the points that land there
    rng = stream(32)
    profiles = age_sweep_profiles(n=240, seed=33)
    targets = [math.exp(rng.normal(2.0 + p.age / 50.0, 0.4)) for p in profiles]
    tree = fit_tree(table(profiles), targets, max_depth=4, min_leaf=15)

    def leaf_of(p):
        node = tree.root
        while isinstance(node, estimators.TreeSplit):
            if node.kind == "numeric":
                node = node.left if getattr(p, node.feature) <= node.threshold else node.right
            else:
                node = node.left if getattr(p, node.feature) == node.level else node.right
        return node

    groups = {}
    for p, t in zip(profiles, targets):
        groups.setdefault(id(leaf_of(p)), [leaf_of(p), []])[1].append(math.log(t))
    total = 0
    for leaf, values in groups.values():
        assert leaf.count == len(values)
        assert leaf.mean_ln == pytest.approx(float(np.mean(values)), abs=1e-12)
        assert math.exp(locations(tree, table(profiles[:1]))[0][0]) == pytest.approx(
            math.exp(leaf_of(profiles[0]).mean_ln), rel=1e-15
        )
        total += len(values)
    assert total == len(profiles)


def reference_best_numeric_split(values, y, min_leaf):
    """The per-cut loop ``_best_numeric_split`` replaced: the first cut
    of least SSE, by a strict ``<``."""
    order = np.argsort(values, kind="stable")
    v, ys = values[order], y[order]
    n = len(ys)
    csum = np.cumsum(ys)
    csum2 = np.cumsum(ys**2)
    total, total2 = csum[-1], csum2[-1]
    best = None
    for i in range(min_leaf, n - min_leaf + 1):
        if i < n and v[i - 1] == v[i]:
            continue
        sl, sl2 = csum[i - 1], csum2[i - 1]
        sse_l = sl2 - sl * sl / i
        sr, sr2 = total - sl, total2 - sl2
        sse_r = sr2 - sr * sr / (n - i)
        sse = sse_l + sse_r
        if best is None or sse < best[0]:
            best = (sse, 0.5 * (v[i - 1] + v[i]))
    return best


@st.composite
def split_cases(draw):
    """(values, y, min_leaf): 1-40 values from 7 levels, so that they tie,
    targets that often repeat, so that cuts tie in SSE, and min_leaf up
    to n + 1, past n/2, where no cut is admissible."""
    n = draw(st.integers(1, 40))
    values = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    y = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(-8.0, 8.0)),
                      min_size=n, max_size=n))
    return np.asarray(values, dtype=float), np.asarray(y), draw(st.integers(1, n + 1))


@settings(max_examples=1000, deadline=None)
@given(split_cases())
@example((np.arange(12.0) % 4, np.full(12, 1.5), 2))  # every cut has SSE 0
def test_best_numeric_split_matches_the_per_cut_loop(case):
    """Every cut scored at once picks the loop's cut with the same bits:
    the first cut of least SSE, none inside a tie group."""
    got = estimators._best_numeric_split(*case)
    want = reference_best_numeric_split(*case)
    if want is None:
        assert got is None
    else:
        assert [type(x) for x in got] == [type(x) for x in want]
        assert np.array(got).tobytes() == np.array(want).tobytes()


# --- columns against the per-profile references ----------------------------------------
#
# The per-profile code the column code replaced, each profile read with
# getattr, kept as the reference the columns must match bit for bit.

def reference_feature_spec(profiles) -> FeatureSpec:
    nums = []
    for name in DEFAULT_NUMERIC:
        values = np.asarray([float(getattr(p, name)) for p in profiles])
        sd = float(np.std(values))
        nums.append(NumericFeature(name=name, mean=float(values.mean()),
                                   sd=sd if sd > 1e-12 else 1.0))
    cats = []
    for name in DEFAULT_CATEGORICAL:
        levels = tuple(sorted({str(getattr(p, name)) for p in profiles}))
        cats.append(CategoricalFeature(name=name, levels=levels))
    return FeatureSpec(numeric=tuple(nums), categorical=tuple(cats))


def reference_encode_all(spec: FeatureSpec, profiles) -> tuple[np.ndarray, np.ndarray]:
    X = np.zeros((len(profiles), spec.width))
    X[:, 0] = 1.0
    unseen = np.zeros(len(profiles), dtype=np.int64)
    i = 1
    for f in spec.numeric:
        values = np.array([float(getattr(p, f.name)) for p in profiles])
        X[:, i] = (values - f.mean) / f.sd
        i += 1
    for c in spec.categorical:
        level = {value: c.levels.index(value) for value in c.levels}
        j = np.array([level.get(getattr(p, c.name), -1) for p in profiles], dtype=np.int64)
        unseen += j < 0
        hit = np.flatnonzero(j > 0)
        X[hit, i + j[hit] - 1] = 1.0
        i += len(c.levels) - 1
    return X, unseen


def reference_leaf(node, profile) -> TreeLeaf:
    while isinstance(node, TreeSplit):
        if node.kind == "numeric":
            go_left = float(getattr(profile, node.feature)) <= node.threshold
        else:
            go_left = str(getattr(profile, node.feature)) == node.level
        node = node.left if go_left else node.right
    return node


def reference_raw_row(profile, drg_levels) -> list[float]:
    return ([float(profile.age), float(profile.comorbidity_count),
             1.0 if profile.gender == "F" else 0.0]
            + [1.0 if profile.drg == lvl else 0.0 for lvl in drg_levels])


# narrow ranges, so that values repeat, columns come out constant and
# ages and counts land exactly on tree thresholds; DRGs are drawn in no
# particular order, and queries may carry levels the training rows lack
AGES, COUNTS = st.integers(40, 44), st.integers(0, 3)
DRGS = ("HF", "ACS", "ARR", "GEN")
PROFILE_ROWS = st.builds(Row, st.just("P"), AGES, st.sampled_from("FM"), COUNTS,
                         st.sampled_from(DRGS[:3]))
QUERY_ROWS = st.builds(Row, st.just("Q"), AGES, st.sampled_from("FM"), COUNTS,
                       st.sampled_from(DRGS))
TREES = st.recursive(
    st.builds(TreeLeaf, st.floats(-5.0, 5.0), st.integers(1, 9)),
    lambda nodes: st.one_of(
        st.builds(lambda f, t, left, right: TreeSplit(f, "numeric", t, None, left, right),
                  st.sampled_from(DEFAULT_NUMERIC),
                  st.one_of(st.integers(-1, 45).map(float), st.floats(-1.0, 45.0)),
                  nodes, nodes),
        st.builds(lambda f, level, left, right: TreeSplit(f, "categorical", None, level,
                                                          left, right),
                  st.sampled_from(DEFAULT_CATEGORICAL), st.sampled_from(("F", "M") + DRGS),
                  nodes, nodes)),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(PROFILE_ROWS, min_size=1, max_size=12),
       st.lists(QUERY_ROWS, min_size=1, max_size=12), TREES)
@example([Row("P", 42, "F", 1, "HF")], [Row("Q", 42, "M", 2, "GEN")],
         TreeSplit("age", "numeric", 42.0, None, TreeLeaf(1.0, 1), TreeLeaf(2.0, 1)))
def test_profile_columns_keep_the_bits_of_the_per_profile_code(rows, queries, tree):
    """Feature specs, encoded rows, unseen levels, tree leaves and the
    pathway encoder read from columns equal the per-profile code's, bit
    for bit: one-row and constant tables (sd 1), unseen levels, and
    values exactly on a threshold included."""
    profiles, query_table = table(rows), table(queries)
    spec = build_feature_spec(profiles)
    assert spec == reference_feature_spec(rows)
    for sample_rows, sample_table in ((rows, profiles), (queries, query_table)):
        X, unseen = spec.encode_all(sample_table)
        X_ref, unseen_ref = reference_encode_all(spec, sample_rows)
        assert X.tobytes() == X_ref.tobytes()
        assert unseen.tolist() == unseen_ref.tolist()

    model = RegressionTree(tree, 3, 1, DEFAULT_NUMERIC, DEFAULT_CATEGORICAL)
    assert locations(model, query_table)[0] == [
        reference_leaf(tree, q).mean_ln for q in queries]

    encoder = pathways._build_profile_encoder(profiles)
    assert encoder.drg_levels == tuple(sorted({p.drg for p in rows}))
    raw_ref = np.asarray([reference_raw_row(p, encoder.drg_levels) for p in rows])
    assert pathways._raw_rows(profiles, encoder.drg_levels).tobytes() == raw_ref.tobytes()
    means, sds = raw_ref.mean(axis=0), raw_ref.std(axis=0)
    sds[sds < 1e-12] = 1.0
    assert (encoder.means, encoder.sds) == (tuple(means.tolist()), tuple(sds.tolist()))
    encoded_ref = (np.array([reference_raw_row(q, encoder.drg_levels) for q in queries])
                   - means) / sds
    assert encoder.encode_all(query_table).tobytes() == encoded_ref.tobytes()


# --- KS statistic -----------------------------------------------------------------------

def test_ks_identical_samples():
    x = [1.0, 2.0, 3.0]
    assert ks_statistic(x, x) == 0.0


def test_ks_disjoint_supports():
    assert ks_statistic([0.0, 0.0], [1.0, 1.0]) == 1.0


def test_ks_null_distribution_scale():
    a = np.exp(stream(26).normal(0.0, 1.0, size=10_000))
    b = np.exp(stream(27).normal(0.0, 1.0, size=10_000))
    assert ks_statistic(a, b) < 0.03


def test_ks_empty_sample():
    with pytest.raises(DataError, match="both samples must be non-empty"):
        ks_statistic([], [1.0])


def ks_on_the_joint_grid(sample_a, sample_b) -> float:
    """The KS distance with both empirical CDFs evaluated on the
    concatenation of the two sorted samples."""
    a, b = np.sort(np.asarray(sample_a, dtype=float)), np.sort(np.asarray(sample_b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


# a few values, each drawn often: ties within and across the samples
tied = st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.25, 1e9]), min_size=1,
                max_size=40)
spread = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.one_of(tied, spread), st.one_of(tied, spread))
@example([1.0, 1.0, 2.0], [1.0, 2.0, 2.0])
@example([0.0], [0.0, 0.0, 0.0])
def test_ks_equals_the_joint_grid_formula(sample_a, sample_b):
    """Taking the gap at each sample's own points gives the bits of the
    joint grid, ties and repeated values included."""
    ks = ks_statistic(sample_a, sample_b)
    assert np.float64(ks).tobytes() == np.float64(
        ks_on_the_joint_grid(sample_a, sample_b)).tobytes()


# --- serialization -----------------------------------------------------------------------

def test_estimator_json_round_trips():
    x = stream(28).gamma(2.0, 5.0, size=300)
    profiles = age_sweep_profiles(n=120, seed=29)
    targets = [math.exp(2.0 + p.age / 100.0) for p in profiles]
    models = [
        fit_lognormal(x),
        fit_gamma_mom(x),
        fit_weibull(x),
        fit_mixture_em(x, 2, seed=3),
        fit_conditional(table(profiles), targets, TARGET_LOS),
        fit_tree(table(profiles), targets, max_depth=3, min_leaf=10),
    ]
    first = table(profiles[:1])
    for model in models:
        clone = codec.read(estimators.Model, codec.document(model), "model")
        rng_a, rng_b = stream(30), stream(30)
        if isinstance(model, (estimators.ConditionalModel,)):
            assert sampler(model)(locations(model, first)[0][0], rng_a) == sampler(
                clone)(locations(clone, first)[0][0], rng_b)
        elif isinstance(model, estimators.RegressionTree):
            assert locations(model, first) == locations(clone, first)
        else:
            assert sampler(model)(0.0, rng_a) == sampler(clone)(0.0, rng_b)


# each normal-based model kind, and its draw as the scalar numpy calls give it
NORMAL_KINDS = {
    "conditional_los": (
        lambda s: ConditionalModel(FeatureSpec((), ()), (0.0,), s, TARGET_LOS, 5),
        lambda rng, loc, s: math.exp(loc + rng.normal(0.0, s))),
    "conditional_cot": (
        lambda s: ConditionalModel(FeatureSpec((), ()), (0.0,), s, TARGET_COT, 5),
        lambda rng, loc, s: max(0.0, math.exp(loc + rng.normal(0.0, s)) - 1.0)),
    "tree": (
        lambda s: RegressionTree(TreeLeaf(0.0, 5), 1, 1, (), (), s),
        lambda rng, loc, s: math.exp(loc + rng.normal(0.0, s))),
    "lognormal": (
        lambda s: LognormalFit(mu=1.3, sigma=s, n=5, loglik=0.0),
        lambda rng, loc, s: float(rng.lognormal(1.3, s))),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(NORMAL_KINDS)), st.floats(0.0, 2.0),
       st.one_of(st.just(-4.0), st.floats(-6.0, 8.0)), st.integers(0, 2**32 - 1),
       st.integers(0, 30))
def test_draw_z_over_block_normals_gives_the_scalar_draws(kind, sigma, loc, seed, draws):
    """A normal-based model's draw from block normals (blocks of 7) equals
    its scalar numpy draw, bit for bit, and so does ``sampler``'s; at
    loc -4 a cost draw is mostly clamped at 0."""
    make, scalar = NORMAL_KINDS[kind]
    model = make(sigma)
    draw, scalar_draw = draw_z(model), sampler(model)
    normals = blocks(stream(seed).standard_normal, 7)
    rng, rng_scalar = stream(seed), stream(seed)
    for _ in range(draws):
        expected = scalar(rng, loc, sigma)
        assert draw(loc, next(normals)) == expected
        assert scalar_draw(loc, rng_scalar) == expected

