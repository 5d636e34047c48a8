import json
import math

import pytest

from patientflow import codec, estimators, inflow, pathways
from patientflow.domain import ArrivalSeries, Profiles
from patientflow.errors import ConfigError
from patientflow.seeding import stream

from conftest import trajectories_of

X = [1.0, 2.0, 4.0, 8.0, 3.0]
PROFILES = Profiles.from_rows(
    [f"P{i}" for i in range(8)],
    [(30 + 5 * i, "F" if i % 2 else "M", i % 3, "ACS" if i < 4 else "GEN") for i in range(8)])
TARGETS = [2.0, 3.0, 2.5, 4.0, 20.0, 18.0, 30.0, 25.0]
SERIES = ArrivalSeries(1.0, 0.0, (3, 5, 4, 6, 2, 7, 5, 4, 6, 3, 8, 5, 4, 6))


def fit_tree():
    return estimators.fit_tree(PROFILES, TARGETS, max_depth=2, min_leaf=2)


def fit_lag_regression():
    return inflow.fit_lag_regression(SERIES, (1, 2), (inflow.CalendarTerm(2, 1),))


def one_model_per_kind():
    trajectories = trajectories_of([["A"] for i in range(4)] + [
        ["A", "B"] for i in range(4)
    ])
    return [
        estimators.fit_lognormal(X),
        estimators.fit_gamma_mom(X),
        estimators.fit_weibull(X),
        estimators.fit_mixture_em(stream(28).gamma(2.0, 5.0, size=60), 2, seed=3),
        estimators.fit_conditional(PROFILES, TARGETS, estimators.TARGET_LOS),
        fit_tree(),
        inflow.fit_poisson(SERIES),
        inflow.fit_seasonal_naive(SERIES, 3),
        inflow.fit_holt_winters(SERIES, 3, 0.3, 0.1, 0.2),
        fit_lag_regression(),
        pathways.fit_transition_matrix(trajectories),
        pathways.cluster(trajectories, 2, seed=11, profiles=PROFILES),
    ]


def test_every_kind_round_trips_through_json():
    models = one_model_per_kind()
    assert {type(m) for m in models} == set(codec.KINDS.values())
    for model in models:
        doc = json.loads(json.dumps(codec.document(model)))
        assert codec.KINDS[doc["kind"]] is type(model)
        assert codec.decode(doc) == model


def test_slot_kinds_partition_the_table():
    slots = codec.ESTIMATOR_KINDS + codec.INFLOW_KINDS + codec.PATHWAY_KINDS
    assert sorted(slots) == sorted(codec.KINDS)
    assert codec.PATHWAY_KINDS == ("transition_matrix", "pathway_clusters")


# --- golden documents: kinds no benchmark digest covers ---------------------------

GOLDEN = [
    (lambda: estimators.fit_gamma_mom(X), {
        "kind": "gamma",
        "shape": 2.219178082191781,
        "scale": 1.6222222222222225,
        "n": 5,
        "loglik": -10.591680030265447,
    }),
    (lambda: estimators.fit_weibull(X), {
        "kind": "weibull",
        "shape": 1.5825915656204976,
        "scale": 4.0376580288087025,
        "n": 5,
        "loglik": -10.685545792784804,
        "converged": True,
    }),
    (fit_tree, {
        "kind": "tree",
        "max_depth": 2,
        "min_leaf": 2,
        "numeric": ["age", "comorbidity_count"],
        "categorical": ["gender", "drg"],
        "residual_sigma": 0.1051475176938106,
        "root": {
            "leaf": False, "feature": "age", "kind": "numeric",
            "threshold": 47.5, "level": None,
            "left": {
                "leaf": False, "feature": "gender", "kind": "categorical",
                "threshold": None, "level": "F",
                "left": {"leaf": True, "mean_ln": 1.2424533248940002, "count": 2},
                "right": {"leaf": True, "mean_ln": 0.8047189562170503, "count": 2},
            },
            "right": {
                "leaf": False, "feature": "age", "kind": "numeric",
                "threshold": 57.5, "level": None,
                "left": {"leaf": True, "mean_ln": 2.943052015725078, "count": 2},
                "right": {"leaf": True, "mean_ln": 3.310036603265178, "count": 2},
            },
        },
    }),
    (lambda: inflow.fit_seasonal_naive(SERIES, 3), {
        "kind": "seasonal_naive", "m": 3, "tail": [5.0, 4.0, 6.0],
    }),
    (fit_lag_regression, {
        "kind": "lag_regression",
        "lags": [1, 2],
        "calendar": [{"n_phases": 2, "phase_width": 1}],
        "coef": [10.81867318560084, -1.0151112646763867, -0.5229175250052441,
                 0.11981137661970272, 3.0609964732815893],
        "n_train": 14,
        "history": [4.0, 6.0],
    }),
]


@pytest.mark.parametrize("fit, expected", GOLDEN, ids=[g[1]["kind"] for g in GOLDEN])
def test_golden_document(fit, expected):
    doc = codec.document(fit())
    assert doc == expected
    assert json.dumps(doc, sort_keys=True) == json.dumps(expected, sort_keys=True)


# --- rejection ----------------------------------------------------------------------

LOGNORMAL = {"kind": "lognormal", "mu": 1.0, "sigma": 0.5, "n": 3, "loglik": 0.0}


@pytest.mark.parametrize("doc, kinds", [
    ([LOGNORMAL], ()),
    ({**LOGNORMAL, "kind": "forest"}, ()),
    (LOGNORMAL, codec.INFLOW_KINDS),
    ({**LOGNORMAL, "n": 3.5}, ()),
    ({**LOGNORMAL, "degenerate": "no"}, ()),
    ({**LOGNORMAL, "sigma": -math.inf}, ()),
    ({**LOGNORMAL, "mu": 10**400}, ()),
    ({"kind": "seasonal_naive", "m": 2, "tail": 5.0}, ()),
    ({"kind": "seasonal_naive", "m": 2, "tail": [1.0]}, ()),
    ({"kind": "tree", "max_depth": 1, "min_leaf": 1, "numeric": [], "categorical": [],
      "root": {"mean_ln": 0.0, "count": 3}}, ()),
], ids=["not-an-object", "unknown-kind", "outside-slot", "fractional-int", "string-bool",
        "infinite-float", "huge-int", "scalar-for-list", "post-init-check",
        "untagged-tree-node"])
def test_malformed_documents_raise_config_error(doc, kinds):
    with pytest.raises(ConfigError):
        codec.decode(doc, *kinds)


@pytest.mark.parametrize("row, state, probs", [
    (0, "ENTRY", [1.0, 1.0, 1.0]),
    (2, "WARD", [0.0, 0.25, 0.25]),
    (1, "ER", [0.5, 0.5, 1e-8]),
])
def test_observed_transition_row_must_sum_to_one(row, state, probs):
    doc = codec.document(pathways.fit_transition_matrix(trajectories_of([["ER", "WARD"]])))
    doc["probs"][row] = probs
    with pytest.raises(ConfigError, match=rf"row '{state}' sums to"):
        codec.decode(doc)
    clusters = {"kind": "pathway_clusters", "k": 1, "departments": ["ER", "WARD"],
                "clusters": [], "fallback": doc, "profile_encoder": None, "labels": []}
    with pytest.raises(ConfigError, match=rf"row '{state}' sums to"):
        codec.decode(clusters)


def test_unobserved_transition_row_may_be_zero_and_a_near_one_sum_passes():
    doc = codec.document(pathways.fit_transition_matrix(trajectories_of([["ER", "WARD"]])))
    doc["probs"][1] = [0.0, 1.0 - 5e-10, 0.0]
    doc["probs"][2] = [0.0, 0.0, 0.0]
    doc["row_observed"][2] = False
    assert codec.decode(doc).probs[2] == (0.0, 0.0, 0.0)


def test_defaults_may_be_absent_and_errors_name_the_path():
    assert codec.decode(LOGNORMAL) == estimators.LognormalFit(1.0, 0.5, 3, 0.0)
    doc = codec.document(pathways.fit_transition_matrix(trajectories_of([["A"]])))
    clusters = {"kind": "pathway_clusters", "k": 1, "departments": ["A"],
                "clusters": [{"centroid": [0.0], "matrix": {**doc, "probs": [[1.0], "x"]},
                              "member_count": 1, "attribute_centroid": None,
                              "use_fallback": False}],
                "fallback": doc, "profile_encoder": None, "labels": [0]}
    with pytest.raises(ConfigError, match=r"clusters\[0\]\.matrix\.probs\[1\]"):
        codec.decode(clusters)
