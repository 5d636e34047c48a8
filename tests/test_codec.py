import ast
import json
import math
import re
import typing
from pathlib import Path

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


# the unions a model document is read as, the slots of fit's outputs
MODEL_UNIONS = (estimators.Model, inflow.InflowModel, pathways.Pathway)


def union_of(model):
    return next(u for u in MODEL_UNIONS if type(model) in typing.get_args(u))


def test_every_kind_round_trips_through_json():
    models = one_model_per_kind()
    for model in models:
        doc = json.loads(json.dumps(codec.document(model)))
        assert codec.read(union_of(model), doc, "model") == model


def test_model_unions_hold_the_twelve_classes_under_distinct_tags():
    members = [t for u in MODEL_UNIONS for t in typing.get_args(u)]
    assert len(members) == len(set(members)) == 12
    assert set(members) == {type(m) for m in one_model_per_kind()}
    for union in MODEL_UNIONS:
        tags = codec.tags(union)
        assert len(tags) == len(typing.get_args(union)) == len(set(tags))
    assert codec.tags(pathways.Pathway) == ("transition_matrix", "pathway_clusters")
    assert inflow.INFLOW_KINDS == codec.tags(inflow.InflowModel)


def test_codec_imports_nothing_from_the_package_but_errors():
    """The codec is a leaf: the model modules import it to declare their tags."""
    tree = ast.parse(Path(codec.__file__).read_text(encoding="utf-8"))
    names = [(node.level, node.module or "") for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)]
    names += [(0, alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import)
              for alias in node.names]
    package = [module for level, module in names
               if level or module.split(".")[0] == "patientflow"]
    assert package == ["errors"]


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


@pytest.mark.parametrize("doc, union", [
    ([LOGNORMAL], estimators.Model),
    ({**LOGNORMAL, "kind": "forest"}, estimators.Model),
    (LOGNORMAL, inflow.InflowModel),
    ({**LOGNORMAL, "n": 3.5}, estimators.Model),
    ({**LOGNORMAL, "degenerate": "no"}, estimators.Model),
    ({**LOGNORMAL, "sigma": -math.inf}, estimators.Model),
    ({**LOGNORMAL, "mu": 10**400}, estimators.Model),
    ({"kind": "seasonal_naive", "m": 2, "tail": 5.0}, inflow.InflowModel),
    ({"kind": "seasonal_naive", "m": 2, "tail": [1.0]}, inflow.InflowModel),
    ({"kind": "tree", "max_depth": 1, "min_leaf": 1, "numeric": [], "categorical": [],
      "root": {"mean_ln": 0.0, "count": 3}}, estimators.Model),
], ids=["not-an-object", "unknown-kind", "outside-slot", "fractional-int", "string-bool",
        "infinite-float", "huge-int", "scalar-for-list", "post-init-check",
        "untagged-tree-node"])
def test_malformed_documents_raise_config_error(doc, union):
    with pytest.raises(ConfigError):
        codec.read(union, doc, "model")


@pytest.mark.parametrize("row, state, probs", [
    (0, "ENTRY", [1.0, 1.0, 1.0]),
    (2, "WARD", [0.0, 0.25, 0.25]),
    (1, "ER", [0.5, 0.5, 1e-8]),
])
def test_observed_transition_row_must_sum_to_one(row, state, probs):
    doc = codec.document(pathways.fit_transition_matrix(trajectories_of([["ER", "WARD"]])))
    doc["probs"][row] = probs
    with pytest.raises(ConfigError, match=rf"row '{state}' sums to"):
        codec.read(pathways.Pathway, doc, "pathway")
    clusters = {"kind": "pathway_clusters", "k": 1, "departments": ["ER", "WARD"],
                "clusters": [], "fallback": doc, "profile_encoder": None, "labels": []}
    with pytest.raises(ConfigError, match=rf"row '{state}' sums to"):
        codec.read(pathways.Pathway, clusters, "pathway")


def test_unobserved_transition_row_may_be_zero_and_a_near_one_sum_passes():
    doc = codec.document(pathways.fit_transition_matrix(trajectories_of([["ER", "WARD"]])))
    doc["probs"][1] = [0.0, 1.0 - 5e-10, 0.0]
    doc["probs"][2] = [0.0, 0.0, 0.0]
    doc["row_observed"][2] = False
    assert codec.read(pathways.Pathway, doc, "pathway").probs[2] == (0.0, 0.0, 0.0)


def test_defaults_may_be_absent_and_errors_name_the_path():
    assert codec.read(estimators.Model, LOGNORMAL, "model") == estimators.LognormalFit(1.0, 0.5, 3, 0.0)
    doc = codec.document(pathways.fit_transition_matrix(trajectories_of([["A"]])))
    clusters = {"kind": "pathway_clusters", "k": 1, "departments": ["A"],
                "clusters": [{"centroid": [0.0], "matrix": {**doc, "probs": [[1.0], "x"]},
                              "member_count": 1, "attribute_centroid": None,
                              "use_fallback": False}],
                "fallback": doc, "profile_encoder": None, "labels": [0]}
    with pytest.raises(ConfigError, match=r"clusters\[0\]\.matrix\.probs\[1\]"):
        codec.read(pathways.Pathway, clusters, "pathway")


@pytest.mark.parametrize("bad, got", [
    (True, "True"), (1.0, "1.0"), ("1", "'1'"), (None, "None"),
], ids=["bool", "float", "str", "null"])
def test_int_tuple_element_of_another_type_raises_naming_its_index(bad, got):
    """A tuple of exact ints is read in one pass; any other element, a
    bool too, still fails with its own path."""
    trajectories = trajectories_of([["A"]] * 3 + [["A", "B"]] * 3)
    doc = codec.document(pathways.cluster(trajectories, 2, seed=11,
                                          profiles=PROFILES.take(slice(0, 6))))
    assert codec.read(pathways.Pathway, doc, "pathway").labels == tuple(doc["labels"])
    doc["labels"][4] = bad
    with pytest.raises(ConfigError, match=rf"^pathway\.labels\[4\]: expected a number "
                       rf"\(an integer\), got {re.escape(got)}$"):
        codec.read(pathways.Pathway, doc, "pathway")


def test_str_tuple_element_of_another_type_raises_naming_its_index():
    assert codec.read(tuple[str, ...], ["a", "b"], "names") == ("a", "b")
    with pytest.raises(ConfigError, match=r"^names\[1\]: expected str, got 2$"):
        codec.read(tuple[str, ...], ["a", 2, "c"], "names")


def test_union_error_names_tagged_alternatives_by_tag_and_others_by_type():
    with pytest.raises(ConfigError, match=r"^model: expected 'poisson' or 'seasonal_naive' "
                       r"or 'holt_winters' or 'lag_regression', got \{'kind': 'lognormal'"):
        codec.read(inflow.InflowModel, LOGNORMAL, "model")
    with pytest.raises(ConfigError, match=r"^node: expected True or False, got"):
        codec.read(estimators.TreeNode, {"mean_ln": 0.0, "count": 3}, "node")
    with pytest.raises(ConfigError, match=r"^k: expected int or str, got 2\.5$"):
        codec.read(int | str, 2.5, "k")


@pytest.mark.parametrize("tag", [1, 0, 0.0])
def test_union_tag_must_have_the_tags_exact_type(tag):
    """A tree node's ``"leaf"`` is a JSON boolean: 1 is not True, 0 and 0.0
    are not False."""
    with pytest.raises(ConfigError, match=r"^node: expected True or False, got"):
        codec.read(estimators.TreeNode, {"leaf": tag, "mean_ln": 0.0, "count": 3}, "node")


def test_document_too_deep_to_read_raises_config_error():
    leaf = {"leaf": True, "mean_ln": 0.0, "count": 3}
    root = leaf
    for _ in range(5_000):
        root = {"leaf": False, "feature": "age", "kind": "numeric", "threshold": 1.0,
                "level": None, "left": leaf, "right": root}
    doc = {"kind": "tree", "max_depth": 5_000, "min_leaf": 1, "numeric": ["age"],
           "categorical": [], "root": root}
    with pytest.raises(ConfigError, match=r"^model: nested too deeply$"):
        codec.read(estimators.Model, doc, "model")
