"""Stay-duration and cost models.

Three tiers, all fitting positive right-skewed targets in ln space:

* univariate baselines (lognormal MLE, Gamma by method of moments,
  Weibull MLE via Newton on the shape equation),
* finite lognormal mixtures fitted by EM for heterogeneous
  sub-populations,
* attribute-conditioned models (ridge-damped least squares on encoded
  patient features, and a single CART regression tree).

Durations must be strictly positive. Costs may be zero, so cost models
work on ln(cost + 1); predictions and samples undo the shift and clamp
at zero.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from numpy.random import Generator

from . import codec
from .domain import Profiles
from .errors import ConfigError, DataError, NumericError
from .seeding import cumulative, distinct_rows, draw_cumulative, kmeanspp, stream

RIDGE_DAMPING = 1e-8
SIGMA_FLOOR = 1e-4          # EM component floor, prevents collapse
EM_TOL = 1e-8               # EM stops once an E step gains less log-likelihood
DEGENERATE_SIGMA = 1e-12
COST_FLOOR = 0.01           # lognormal cost fits need strictly positive totals

TARGET_LOS = "los"
TARGET_COT = "cot"

_LN_2PI = math.log(2.0 * math.pi)


def _check_non_negative(model, *names: str) -> None:
    """Reject a negative weight or scale parameter, as numpy's samplers
    would; 0 is allowed, as it is in numpy."""
    for name in names:
        value = getattr(model, name)
        if value < 0.0:
            raise ConfigError(f"{type(model).__name__} {name} must be >= 0, got {value!r}")


def ridge_solve(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of ``y`` on the columns of ``X`` by the
    normal equations, with ``RIDGE_DAMPING`` on the diagonal."""
    return np.linalg.solve(X.T @ X + RIDGE_DAMPING * np.eye(X.shape[1]), X.T @ y)


# --- univariate fits ---------------------------------------------------------

@codec.tagged("lognormal")
@dataclass(frozen=True)
class LognormalFit:
    mu: float
    sigma: float
    n: int
    loglik: float
    degenerate: bool = False

    def __post_init__(self):
        _check_non_negative(self, "sigma")


@codec.tagged("gamma")
@dataclass(frozen=True)
class GammaFit:
    shape: float
    scale: float
    n: int
    loglik: float

    def __post_init__(self):
        _check_non_negative(self, "shape", "scale")


@codec.tagged("weibull")
@dataclass(frozen=True)
class WeibullFit:
    shape: float
    scale: float
    n: int
    loglik: float
    converged: bool = True

    def __post_init__(self):
        _check_non_negative(self, "shape", "scale")


def _positive_array(x: Sequence[float], minimum: int = 2) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or len(arr) < minimum:
        raise DataError(f"need at least {minimum} observations, got {arr.size}")
    if np.any(arr <= 0.0):
        raise DataError("all observations must be > 0")
    return arr


def fit_lognormal(x: Sequence[float]) -> LognormalFit:
    """MLE: mu = mean(ln x), sigma = population sd of ln x."""
    arr = _positive_array(x)
    lnx = np.log(arr)
    mu = float(np.mean(lnx))
    sigma = float(np.sqrt(np.mean((lnx - mu) ** 2)))
    sig = max(sigma, DEGENERATE_SIGMA)
    ll = float(
        -np.sum(lnx)
        - len(arr) * (math.log(sig) + 0.5 * _LN_2PI)
        - float(np.sum((lnx - mu) ** 2)) / (2.0 * sig * sig)
    )
    return LognormalFit(mu=mu, sigma=sigma, n=len(arr), loglik=ll,
                        degenerate=sigma < DEGENERATE_SIGMA)


def fit_gamma_mom(x: Sequence[float]) -> GammaFit:
    """Method of moments: k = mean^2 / var, theta = var / mean."""
    arr = _positive_array(x)
    mean = float(np.mean(arr))
    var = float(np.mean((arr - mean) ** 2))
    if var <= 0.0:
        raise DataError("sample variance must be positive")
    k = mean * mean / var
    theta = var / mean
    ll = float(
        (k - 1.0) * np.sum(np.log(arr))
        - np.sum(arr) / theta
        - len(arr) * (k * math.log(theta) + math.lgamma(k))
    )
    return GammaFit(shape=k, scale=theta, n=len(arr), loglik=ll)


def fit_weibull(x: Sequence[float], strict: bool = False) -> WeibullFit:
    """Weibull MLE: Newton iteration on the profile shape equation.

    Starting from k = 1.2 with a 200-iteration cap; the scale then
    follows as lambda = (mean of x^k)^(1/k). On divergence the best
    iterate is returned with ``converged`` unset (or NumericError is
    raised in strict mode).
    """
    arr = _positive_array(x)
    mean = float(np.mean(arr))
    if float(np.mean((arr - mean) ** 2)) <= 0.0:
        raise DataError("sample variance must be positive")
    z = arr / mean  # the shape equation is scale invariant
    lnz = np.log(z)
    mean_lnz = float(np.mean(lnz))

    def g_and_dg(k: float) -> tuple[float, float]:
        zk = z**k
        s0 = float(np.sum(zk))
        s1 = float(np.sum(zk * lnz))
        s2 = float(np.sum(zk * lnz * lnz))
        g = s1 / s0 - 1.0 / k - mean_lnz
        dg = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k)
        return g, dg

    k = 1.2
    best_k, best_abs_g = k, math.inf
    converged = False
    for _ in range(200):
        g, dg = g_and_dg(k)
        if abs(g) < best_abs_g:
            best_k, best_abs_g = k, abs(g)
        if abs(g) < 1e-10:
            converged = True
            break
        step = g / dg
        k_new = k - step
        if k_new <= 0.0 or not math.isfinite(k_new):
            k_new = k / 2.0
        if abs(k_new - k) < 1e-12 * (1.0 + k):
            k = k_new
            g, _ = g_and_dg(k)
            if abs(g) < best_abs_g:
                best_k, best_abs_g = k, abs(g)
            converged = abs(g) < 1e-8
            break
        k = k_new
    if not converged:
        if strict:
            raise NumericError(f"shape equation residual {best_abs_g:.3e}")
        k = best_k
    lam = mean * float(np.mean(z**k)) ** (1.0 / k)
    ll = float(
        len(arr) * (math.log(k) - k * math.log(lam))
        + (k - 1.0) * np.sum(np.log(arr))
        - np.sum((arr / lam) ** k)
    )
    return WeibullFit(shape=k, scale=lam, n=len(arr), loglik=ll, converged=converged)


# --- lognormal mixtures by EM ------------------------------------------------

@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    mu: float
    sigma: float

    def __post_init__(self):
        _check_non_negative(self, "weight", "sigma")


@codec.tagged("lognormal_mixture")
@dataclass(frozen=True)
class MixtureFit:
    components: tuple[MixtureComponent, ...]
    n: int
    loglik: float
    trace: tuple[float, ...]  # log-likelihood after each E step

    def __post_init__(self):
        total = sum(c.weight for c in self.components)
        if not self.components or abs(total - 1.0) > 1e-9:
            raise ConfigError(f"mixture needs at least one component and weights that "
                              f"sum to 1, got {len(self.components)} summing to {total!r}")

    def converged(self) -> bool:
        """Whether EM stopped on a log-likelihood gain below ``EM_TOL``
        rather than at its iteration cap."""
        return len(self.trace) >= 2 and self.trace[-1] - self.trace[-2] < EM_TOL


def fit_mixture_em(
    x: Sequence[float],
    k: int,
    seed: int,
    max_iter: int = 500,
) -> MixtureFit:
    """Fit a k-component lognormal mixture by EM on ln x.

    Means are seeded k-means++ style, sigmas at the global sd and weights
    uniform. The log-likelihood trace (one entry per E step, Jacobian
    term included so values are comparable with ``fit_lognormal``) is
    non-decreasing up to the component sd floor.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    arr = _positive_array(x, minimum=max(2, 5 * k))
    lnx = np.log(arr)
    n = len(arr)
    jacobian = float(np.sum(lnx))
    mu = kmeanspp(distinct_rows(lnx[:, None]), k, stream(seed))[:, 0]
    sigma = np.full(k, max(float(np.std(lnx)), SIGMA_FLOOR))
    w = np.full(k, 1.0 / k)

    # One array per component. Each sum adds in the order numpy reduces the
    # (n, k) responsibility array: a row folds its components left to right,
    # and a column sum is sequential for k > 1 (np.cumsum) but pairwise for
    # k = 1, where the (n, 1) array reduces like a flat one.
    colsum = (lambda v: v.sum()) if k == 1 else (lambda v: np.cumsum(v)[-1])
    trace: list[float] = []
    for _ in range(max_iter):
        # E step: responsibilities and current log-likelihood
        log_sigma, log_w = np.log(sigma), np.log(w)
        logp = [-0.5 * ((lnx - mu[j]) / sigma[j]) ** 2 - log_sigma[j] - 0.5 * _LN_2PI
                + log_w[j] for j in range(k)]
        row_max = functools.reduce(np.maximum, logp)
        lse = row_max + np.log(functools.reduce(operator.add,
                                                [np.exp(c - row_max) for c in logp]))
        ll = float(lse.sum()) - jacobian
        trace.append(ll)
        if len(trace) >= 2 and trace[-1] - trace[-2] < EM_TOL:
            break
        resp = [np.exp(c - lse) for c in logp]
        # M step
        nk = np.maximum([colsum(r) for r in resp], 1e-12)
        w = nk / nk.sum()
        mu = np.array([colsum(r * lnx) for r in resp]) / nk
        var = np.array([colsum(r * (lnx - m) ** 2) for r, m in zip(resp, mu)]) / nk
        sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)

    order = np.argsort(mu)
    components = tuple(
        MixtureComponent(weight=float(w[i]), mu=float(mu[i]), sigma=float(sigma[i]))
        for i in order
    )
    return MixtureFit(components=components, n=n, loglik=trace[-1], trace=tuple(trace))


# --- attribute encoding and conditional regression ----------------------------

DEFAULT_NUMERIC = ("age", "comorbidity_count")
DEFAULT_CATEGORICAL = ("gender", "drg")


def _check_attribute(owner: str, name: str, kind: str) -> None:
    """Reject a feature that is not a profile attribute of its kind, so
    that a model document that decodes can also predict."""
    names = {"numeric": DEFAULT_NUMERIC, "categorical": DEFAULT_CATEGORICAL}.get(kind)
    if names is None:
        raise ConfigError(f"{owner} kind must be 'numeric' or 'categorical', got {kind!r}")
    if name not in names:
        raise ConfigError(f"{owner} {name!r} is not a {kind} profile attribute "
                          f"({' or '.join(names)})")


@dataclass(frozen=True)
class NumericFeature:
    name: str
    mean: float
    sd: float  # a constant column gets sd 1 so it standardizes to 0

    def __post_init__(self):
        _check_attribute("NumericFeature", self.name, "numeric")
        if not self.sd > 0.0:
            raise ConfigError(f"NumericFeature sd must be > 0, got {self.sd!r}")


@dataclass(frozen=True)
class CategoricalFeature:
    name: str
    levels: tuple[str, ...]  # first level is the dropped reference

    def __post_init__(self):
        _check_attribute("CategoricalFeature", self.name, "categorical")
        if not self.levels:
            raise ConfigError(f"CategoricalFeature {self.name!r} needs at least one level")


@dataclass(frozen=True)
class FeatureSpec:
    """Ordered encoding plan for patient attributes.

    Numeric features are standardized by training mean/sd; categoricals
    are one-hot with the first (reference) level dropped; a leading
    intercept column is always present. An unseen level at prediction
    time encodes as all zeros (the reference) and is counted by
    ``encode_all``.
    """

    numeric: tuple[NumericFeature, ...]
    categorical: tuple[CategoricalFeature, ...]

    @property
    def width(self) -> int:
        return 1 + len(self.numeric) + sum(len(c.levels) - 1 for c in self.categorical)

    def encode_all(self, profiles: Profiles) -> tuple[np.ndarray, np.ndarray]:
        """One encoded row per profile, and the unseen levels in each.

        A numeric attribute is ``(float(value) - mean) / sd`` per row, a
        level 1.0 or 0.0.
        """
        X = np.zeros((len(profiles), self.width))
        X[:, 0] = 1.0
        unseen = np.zeros(len(profiles), dtype=np.int64)
        i = 1
        for f in self.numeric:
            X[:, i] = (getattr(profiles, f.name).astype(float) - f.mean) / f.sd
            i += 1
        for c in self.categorical:
            level = {value: c.levels.index(value) for value in c.levels}
            j = np.array([level.get(value, -1) for value in getattr(profiles, c.name).tolist()],
                         dtype=np.int64)
            unseen += j < 0
            hit = np.flatnonzero(j > 0)
            X[hit, i + j[hit] - 1] = 1.0
            i += len(c.levels) - 1
        return X, unseen


def build_feature_spec(profiles: Profiles) -> FeatureSpec:
    if not len(profiles):
        raise DataError("no profiles")
    nums = []
    for name in DEFAULT_NUMERIC:
        values = getattr(profiles, name).astype(float)
        sd = float(np.std(values))
        nums.append(NumericFeature(name=name, mean=float(values.mean()),
                                   sd=sd if sd > 1e-12 else 1.0))
    cats = []
    for name in DEFAULT_CATEGORICAL:
        levels = tuple(sorted(set(getattr(profiles, name).tolist())))
        cats.append(CategoricalFeature(name=name, levels=levels))
    return FeatureSpec(numeric=tuple(nums), categorical=tuple(cats))


@codec.tagged("conditional")
@dataclass(frozen=True)
class ConditionalModel:
    """ln-target linear model with Gaussian residuals."""

    feature_spec: FeatureSpec
    coef: tuple[float, ...]
    residual_sigma: float
    target_kind: str  # TARGET_LOS or TARGET_COT
    n: int
    constant_target: bool = False

    def __post_init__(self):
        _check_non_negative(self, "residual_sigma")
        if self.target_kind not in (TARGET_LOS, TARGET_COT):
            raise ConfigError(f"conditional target_kind must be {TARGET_LOS!r} or "
                              f"{TARGET_COT!r}, got {self.target_kind!r}")
        if len(self.coef) != self.feature_spec.width:
            raise ConfigError(f"coef has {len(self.coef)} entries, the feature spec "
                              f"implies {self.feature_spec.width}")


def _ln_target(targets: np.ndarray, target_kind: str) -> np.ndarray:
    if target_kind == TARGET_LOS:
        if np.any(targets <= 0.0):
            raise DataError("stay durations must be > 0")
        return np.log(targets)
    if target_kind == TARGET_COT:
        if np.any(targets < 0.0):
            raise DataError("costs must be >= 0")
        return np.log(targets + 1.0)  # admits zero costs
    raise ConfigError(f"unknown target kind {target_kind!r}")


def fit_conditional(
    profiles: Profiles,
    targets: Sequence[float],
    target_kind: str = TARGET_LOS,
) -> ConditionalModel:
    """Ridge-damped least squares of the ln target on encoded attributes."""
    t = np.asarray(targets, dtype=float)
    if len(profiles) != len(t):
        raise DataError("profiles and targets must align")
    y = _ln_target(t, target_kind)
    spec = build_feature_spec(profiles)
    if len(t) <= spec.width:
        raise DataError(f"need more than {spec.width} rows, got {len(t)}")
    X = spec.encode_all(profiles)[0]
    coef = ridge_solve(X, y)
    residuals = y - X @ coef
    residual_sigma = float(np.sqrt(np.mean(residuals**2)))
    return ConditionalModel(
        feature_spec=spec,
        coef=tuple(float(c) for c in coef),
        residual_sigma=residual_sigma,
        target_kind=target_kind,
        n=len(t),
        constant_target=float(np.std(y)) < 1e-12,
    )


def locations(model: ConditionalModel | RegressionTree,
              profiles: Profiles) -> tuple[list[float], list[int]]:
    """The ln-space location of each profile's draws, and the unseen levels
    met in each.

    For a conditional model this is the linear predictor, one ``np.dot``
    per encoded row; for a tree the leaf's mean ln target (exact leaf
    statistic, no exponentiation).
    """
    if isinstance(model, ConditionalModel):
        rows, unseen = model.feature_spec.encode_all(profiles)
        coef = np.asarray(model.coef)
        return [float(np.dot(coef, row)) for row in rows], unseen.tolist()
    return _leaf_means(model.root, profiles).tolist(), [0] * len(profiles)


def _exp(x: float) -> float:
    """``math.exp``, but infinite where the result overflows, as numpy's
    exp gives it."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def draw_z(model) -> Callable[[float, float], float] | None:
    """Compile a normal-based model into ``draw(loc, z) -> float`` of one
    standard normal ``z``, or None for a model that draws otherwise.

    The arithmetic repeats numpy's operation for operation:
    ``rng.normal(0, s)`` is ``0.0 + s * z`` and ``rng.lognormal(mu, s)``
    is ``exp(mu + s * z)``, so a draw equals the model's scalar draw from
    the generator that gave ``z``. Each draw takes the exp of one number;
    numpy's vectorised exp can differ from it in the last bits.
    """
    if isinstance(model, ConditionalModel):
        sigma = model.residual_sigma
        if model.target_kind == TARGET_COT:
            return lambda loc, z: max(0.0, _exp(loc + (0.0 + sigma * z)) - 1.0)
        return lambda loc, z: _exp(loc + (0.0 + sigma * z))
    if isinstance(model, RegressionTree):
        sigma = model.residual_sigma
        return lambda loc, z: _exp(loc + (0.0 + sigma * z))
    if isinstance(model, LognormalFit):
        mu, sigma = model.mu, model.sigma
        return lambda loc, z: _exp(mu + sigma * z)
    return None


def sampler(model) -> Callable[[float, Generator], float]:
    """Compile a fitted model into ``draw(loc, rng) -> float``.

    ``loc`` is the profile's entry of ``locations`` for the models in
    ``PROFILE_MODELS`` and is ignored by the others.
    """
    normal = draw_z(model)
    if normal is not None:
        return lambda loc, rng: normal(loc, rng.standard_normal())
    if isinstance(model, GammaFit):
        shape, scale = model.shape, model.scale
        return lambda loc, rng: float(rng.gamma(shape, scale))
    if isinstance(model, WeibullFit):
        shape, scale = model.shape, model.scale
        return lambda loc, rng: scale * float(rng.weibull(shape))
    if isinstance(model, MixtureFit):
        cum = cumulative(c.weight for c in model.components)
        params = [(c.mu, c.sigma) for c in model.components]

        def draw_mixture(loc: float, rng: Generator) -> float:
            mu, sigma = params[draw_cumulative(cum, rng)]
            return float(rng.lognormal(mu, sigma))

        return draw_mixture
    raise ConfigError(f"cannot sample from {type(model).__name__}")


# --- CART regression tree ------------------------------------------------------

@codec.tagged(True, key="leaf")
@dataclass(frozen=True)
class TreeLeaf:
    mean_ln: float
    count: int


@codec.tagged(False, key="leaf")
@dataclass(frozen=True)
class TreeSplit:
    feature: str
    kind: str                  # "numeric" or "categorical"
    threshold: float | None    # numeric: left if value <= threshold
    level: str | None          # categorical: left if value == level
    left: "TreeNode"
    right: "TreeNode"

    def __post_init__(self):
        _check_attribute("TreeSplit", self.feature, self.kind)
        if self.kind == "numeric" and self.threshold is None:
            raise ConfigError(f"numeric TreeSplit on {self.feature!r} needs a threshold")
        if self.kind == "categorical" and not isinstance(self.level, str):
            raise ConfigError(f"categorical TreeSplit on {self.feature!r} needs a string "
                              f"level, got {self.level!r}")


TreeNode = Union[TreeLeaf, TreeSplit]


@codec.tagged("tree")
@dataclass(frozen=True)
class RegressionTree:
    root: TreeNode
    max_depth: int
    min_leaf: int
    numeric: tuple[str, ...]
    categorical: tuple[str, ...]
    residual_sigma: float = 0.0  # pooled within-leaf ln-target sd, for sampling

    def __post_init__(self):
        _check_non_negative(self, "residual_sigma")


# models whose draws depend on the patient profile
PROFILE_MODELS = (ConditionalModel, RegressionTree)

# any stay-duration or cost model, as a simulation config holds one
Model = Union[LognormalFit, GammaFit, WeibullFit, MixtureFit, ConditionalModel,
              RegressionTree]


def _best_numeric_split(values: np.ndarray, y: np.ndarray, min_leaf: int):
    order = np.argsort(values, kind="stable")
    v, ys = values[order], y[order]
    n = len(ys)
    csum = np.cumsum(ys)
    csum2 = np.cumsum(ys**2)
    i = np.arange(min_leaf, n - min_leaf + 1)
    i = i[v[i - 1] != v[i]]  # cannot split inside a tie group
    if not len(i):
        return None
    sl, sl2 = csum[i - 1], csum2[i - 1]
    sr, sr2 = csum[-1] - sl, csum2[-1] - sl2
    sse = (sl2 - sl * sl / i) + (sr2 - sr * sr / (n - i))
    best = int(np.argmin(sse))  # the first cut of least SSE
    return sse[best], 0.5 * (v[i[best] - 1] + v[i[best]])  # (sse, threshold)


def _best_categorical_split(values: np.ndarray, y: np.ndarray, min_leaf: int):
    best = None
    for level in sorted(set(values.tolist())):
        mask = values == level
        nl = int(mask.sum())
        nr = len(y) - nl
        if nl < min_leaf or nr < min_leaf:
            continue
        yl, yr = y[mask], y[~mask]
        sse = float(np.sum((yl - yl.mean()) ** 2) + np.sum((yr - yr.mean()) ** 2))
        if best is None or sse < best[0]:
            best = (sse, level)
    return best


def _grow(
    num_cols: dict[str, np.ndarray],
    cat_cols: dict[str, np.ndarray],
    y: np.ndarray,
    idx: np.ndarray,
    depth: int,
    max_depth: int,
    min_leaf: int,
) -> TreeNode:
    ys = y[idx]
    leaf = TreeLeaf(mean_ln=float(ys.mean()), count=len(idx))
    if depth >= max_depth or len(idx) < 2 * min_leaf:
        return leaf
    sse_here = float(np.sum((ys - ys.mean()) ** 2))
    best = None  # (sse, feature, kind, threshold, level)
    for name, col in num_cols.items():
        cand = _best_numeric_split(col[idx], ys, min_leaf)
        if cand and (best is None or cand[0] < best[0]):
            best = (cand[0], name, "numeric", cand[1], None)
    for name, col in cat_cols.items():
        cand = _best_categorical_split(col[idx], ys, min_leaf)
        if cand and (best is None or cand[0] < best[0]):
            best = (cand[0], name, "categorical", None, cand[1])
    if best is None or sse_here - best[0] <= 1e-12:
        return leaf
    _, name, kind, threshold, level = best
    if kind == "numeric":
        mask = num_cols[name][idx] <= threshold
    else:
        mask = cat_cols[name][idx] == level
    left = _grow(num_cols, cat_cols, y, idx[mask], depth + 1, max_depth, min_leaf)
    right = _grow(num_cols, cat_cols, y, idx[~mask], depth + 1, max_depth, min_leaf)
    return TreeSplit(feature=name, kind=kind, threshold=threshold, level=level,
                     left=left, right=right)


def fit_tree(
    profiles: Profiles,
    targets: Sequence[float],
    max_depth: int = 6,
    min_leaf: int = 20,
) -> RegressionTree:
    """Greedy variance-reduction CART on the ln target.

    Numeric split candidates are midpoints of sorted unique values;
    categorical splits are single level vs rest. Growth stops at
    max_depth, min_leaf, or when no split reduces the SSE.
    """
    if min_leaf < 1:
        raise ConfigError(f"min_leaf must be >= 1, got {min_leaf}")
    if max_depth < 0:
        raise ConfigError(f"max_depth must be >= 0, got {max_depth}")
    t = np.asarray(targets, dtype=float)
    if len(profiles) != len(t):
        raise DataError("profiles and targets must align")
    if len(t) < 2 * min_leaf:
        raise DataError(f"need at least {2 * min_leaf} rows, got {len(t)}")
    if np.any(t <= 0.0):
        raise DataError("targets must be > 0")
    y = np.log(t)
    num_cols = {n: getattr(profiles, n).astype(float) for n in DEFAULT_NUMERIC}
    cat_cols = {n: getattr(profiles, n) for n in DEFAULT_CATEGORICAL}
    root = _grow(num_cols, cat_cols, y, np.arange(len(t)), 0, max_depth, min_leaf)
    residuals = y - _leaf_means(root, profiles)
    return RegressionTree(root=root, max_depth=max_depth, min_leaf=min_leaf,
                          numeric=DEFAULT_NUMERIC, categorical=DEFAULT_CATEGORICAL,
                          residual_sigma=float(np.sqrt(np.mean(residuals**2))))


def _leaf_means(root: TreeNode, profiles: Profiles) -> np.ndarray:
    """The mean ln target of the leaf each profile reaches: a split sends
    left the rows whose numeric value is <= its threshold, or whose
    categorical value equals its level."""
    means = np.empty(len(profiles))
    stack = [(root, np.arange(len(profiles)))]
    while stack:
        node, rows = stack.pop()
        if isinstance(node, TreeLeaf):
            means[rows] = node.mean_ln
            continue
        values = getattr(profiles, node.feature)[rows]
        if node.kind == "numeric":
            left = values.astype(float) <= node.threshold
        else:
            left = values == node.level
        stack += ((node.left, rows[left]), (node.right, rows[~left]))
    return means


# --- distribution distance -----------------------------------------------------

def ks_statistic(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance between empirical CDFs.

    The sup is reached at a sample point, so the gap is taken at each
    sample's own points in turn, with no grid of both."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise DataError("both samples must be non-empty")

    def largest_gap(points: np.ndarray) -> float:
        gap = np.searchsorted(a, points, side="right") / len(a)
        gap -= np.searchsorted(b, points, side="right") / len(b)
        return np.max(np.abs(gap, out=gap))

    return float(max(largest_gap(a), largest_gap(b)))
