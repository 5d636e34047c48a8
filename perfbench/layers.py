"""Per-layer metrics: the catalogue and their computation from spans.

Each entry of ``CATALOGUE`` names a metric, its unit, which direction is
better, the end-to-end metric it should move and the workloads on which
it should move it. ``BENCHMARK.json`` lists the same names and units;
the self-test checks that they agree.

A layer's time is the sum over its outermost spans of their duration,
minus any benchmark work (``bench.*`` spans) inside them. Self time is
a span's duration minus its child spans. A metric whose function did not
run on a workload reads 0.

This module imports only the standard library.
"""

from __future__ import annotations

import statistics

CC, CP = "compare-capped-j2", "cli-pipeline"
ALL = f"{CC}, {CP}"

# name, unit, better, moves, on
CATALOGUE = (
    ("engine.run.stack_a.s", "s", "lower", "wall_s, sim_patients_per_s",
     f"{CC}; median per replication of its jobs=1 run"),
    ("engine.run.stack_b.s", "s", "lower", "wall_s, sim_patients_per_s",
     f"{CC}; median per replication of its jobs=1 run"),
    ("engine.run.patients_per_s", "1/s", "higher", "wall_s, sim_patients_per_s",
     f"{CC}; negligible on {CP}"),
    ("engine.run.stays_per_s", "1/s", "higher", "wall_s, sim_patients_per_s",
     f"{CC}; negligible on {CP}"),
    ("engine.replicate.j1.s", "s", "lower", "wall_s, peak_rss_mb",
     f"{CC}; {CP} in the --jobs check"),
    ("engine.replicate.jN.s", "s", "lower", "wall_s, peak_rss_mb",
     f"{CC}; {CP} in the --jobs check"),
    ("engine.replicate.speedup", "x", "higher", "wall_s", f"{CC}; base j1.s over jN.s"),
    ("engine.replicate.result_bytes", "bytes", "lower", "wall_s, peak_rss_mb", CC),
    ("engine.replicate.worker_peak_rss_mb", "MB", "lower", "peak_rss_mb",
     f"{CC}; 0 on serial workloads"),
    ("engine.patients", "count", "higher", "check: repeats exactly per seed", ALL),
    ("engine.stays", "count", "higher", "check: repeats exactly per seed", ALL),
    ("engine.waited_stays", "count", "lower", "check: repeats exactly per seed",
     f"{CC}; 0 with unbounded beds"),
    ("engine.wait_hours", "patient-h", "lower", "check: repeats exactly per seed",
     f"{CC}; 0 with unbounded beds"),
    ("engine.truncated_walks", "count", "lower", "check: repeats exactly per seed", ALL),
    ("engine.in_system", "count", "lower", "check: repeats exactly per seed", ALL),
    ("engine.bucket_census.s", "s", "lower", "wall_s", ALL),
    ("engine.export.s", "s", "lower", "wall_s", CP),
    ("synthehr.generate.s", "s", "lower", "wall_s", f"{CP} (largest share), {CC}"),
    ("synthehr.generate.patients_per_s", "1/s", "higher", "wall_s", ALL),
    ("synthehr.write_outputs.s", "s", "lower", "wall_s", CP),
    ("domain.parse_event_log.s", "s", "lower", "wall_s", f"{CP}; no CSV in compare"),
    ("domain.parse_event_log.rows_per_s", "1/s", "higher", "wall_s", CP),
    ("domain.bucketize.s", "s", "lower", "wall_s", ALL),
    ("domain.extract_trajectories.s", "s", "lower", "wall_s", ALL),
    ("inflow.fit_holt_winters.s", "s", "lower", "wall_s",
     f"{CP} (grid search); pinned in {CC}"),
    ("inflow.forecast.s", "s", "lower", "wall_s", ALL),
    ("inflow.evaluate.s", "s", "lower", "wall_s", CC),
    ("estimators.fit_mixture_em.s", "s", "lower", "wall_s", CP),
    ("estimators.fit_conditional.s", "s", "lower", "wall_s", ALL),
    ("estimators.fit_lognormal.s", "s", "lower", "wall_s", CC),
    ("estimators.ks_statistic.s", "s", "lower", "wall_s", CC),
    ("pathways.cluster.s", "s", "lower", "wall_s", ALL),
    ("pathways.fit_transition_matrix.s", "s", "lower", "wall_s", ALL),
    ("experiment.run_experiment.s", "s", "lower", "wall_s", CC),
    ("experiment.self_s", "s", "lower", "wall_s",
     f"{CC}; split, scoring loops, pathway TV, exports"),
    ("experiment.census_error.s", "s", "lower", "wall_s", CC),
    ("cli.synth.s", "s", "lower", "wall_s", CP),
    ("cli.fit.s", "s", "lower", "wall_s", CP),
    ("cli.forecast.s", "s", "lower", "wall_s", CP),
    ("cli.simulate.s", "s", "lower", "wall_s", CP),
    ("cli.compare.s", "s", "lower", "wall_s", CC),
    ("cli.self_s", "s", "lower", "wall_s", f"{CP}; JSON I/O, target extraction"),
    ("trace.overhead_s", "s", "lower", "none: traced wall minus untraced median", ALL),
    ("trace.spans", "count", "lower", "none: spans per traced operation", ALL),
    ("error_rate", "ratio", "lower", "failed over attempted operations", ALL),
)

UNITS = {name: unit for name, unit, *_ in CATALOGUE}

# metric -> span names whose busy time it sums
_BUSY = {
    "engine.bucket_census.s": ("engine.bucket_census",),
    "engine.export.s": ("engine.write_census_csv", "engine.write_patients_csv",
                        "engine.write_summary_json"),
    **{f"{name}.s": (name,) for name in (
        "synthehr.generate", "synthehr.write_outputs", "domain.parse_event_log",
        "domain.bucketize", "domain.extract_trajectories", "inflow.fit_holt_winters",
        "inflow.forecast", "inflow.evaluate", "estimators.fit_mixture_em",
        "estimators.fit_conditional", "estimators.fit_lognormal",
        "estimators.ks_statistic", "pathways.cluster", "pathways.fit_transition_matrix",
        "experiment.run_experiment", "experiment.census_error", "cli.synth", "cli.fit",
        "cli.forecast", "cli.simulate", "cli.compare")},
}


class SpanTree:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[int, list[dict]] = {s["id"]: [] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def ancestors(self, span: dict):
        while span["parent"] is not None:
            span = self.by_id[span["parent"]]
            yield span

    def in_bench(self, span: dict) -> bool:
        return any(s["name"].startswith("bench.") for s in (span, *self.ancestors(span)))

    def bench_inside(self, span: dict) -> float:
        total = 0.0
        for child in self.children[span["id"]]:
            if child["name"].startswith("bench."):
                total += self.duration(child)
            else:
                total += self.bench_inside(child)
        return total

    def busy(self, names) -> float:
        """Time in the outermost program spans with these names."""
        total = 0.0
        for s in self.spans:
            if s["name"] not in names or self.in_bench(s):
                continue
            if any(a["name"] in names for a in self.ancestors(s)):
                continue
            total += self.duration(s) - self.bench_inside(s)
        return total

    def self_time(self, prefix: str) -> float:
        total = 0.0
        for s in self.spans:
            if s["name"].startswith(prefix) and not self.in_bench(s):
                kids = sum(self.duration(c) for c in self.children[s["id"]])
                total += self.duration(s) - kids
        return total


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def analyse(spans: list[dict], counts: dict) -> dict:
    """Per-layer metrics of one traced operation (all but run-level ones)."""
    tree = SpanTree(spans)
    out = {metric: tree.busy(names) for metric, names in _BUSY.items()}
    out["experiment.self_s"] = tree.self_time("experiment.run_experiment")
    out["cli.self_s"] = tree.self_time("cli.")

    runs = [s for s in spans if s["name"] == "engine.run"]
    for stack in ("stack_a", "stack_b"):
        per_rep = [tree.duration(s) for s in runs
                   if tree.by_id[s["parent"]]["attrs"].get("stack") == stack]
        out[f"engine.run.{stack}.s"] = statistics.median(per_rep) if per_rep else 0.0
    run_time = sum(tree.duration(s) for s in runs)
    out["engine.run.patients_per_s"] = _ratio(
        sum(s["attrs"]["patients"] for s in runs), run_time)
    out["engine.run.stays_per_s"] = _ratio(sum(s["attrs"]["stays"] for s in runs), run_time)

    reps = [s for s in spans if s["name"] in ("engine.replicate", "bench.replicate")]
    j1 = sum(tree.duration(s) for s in reps if s["attrs"]["jobs"] == 1)
    jn = sum(tree.duration(s) for s in reps if s["attrs"]["jobs"] > 1)
    out["engine.replicate.j1.s"] = j1
    out["engine.replicate.jN.s"] = jn
    out["engine.replicate.speedup"] = _ratio(j1, jn)

    gen = [s for s in spans if s["name"] == "synthehr.generate" and not tree.in_bench(s)]
    out["synthehr.generate.patients_per_s"] = _ratio(
        sum(s["attrs"]["patients"] for s in gen), sum(tree.duration(s) for s in gen))
    parses = [s for s in spans if s["name"] == "domain.parse_event_log"]
    out["domain.parse_event_log.rows_per_s"] = _ratio(
        sum(s["attrs"]["rows"] for s in parses), sum(tree.duration(s) for s in parses))

    for name in ("engine.patients", "engine.stays", "engine.waited_stays",
                 "engine.wait_hours", "engine.truncated_walks", "engine.in_system",
                 "engine.replicate.result_bytes"):
        out[name] = counts.get(name, 0)
    out["trace.spans"] = len(spans)
    return out


def bench_time(spans: list[dict]) -> float:
    """Total time of the benchmark's own work inside a traced operation."""
    tree = SpanTree(spans)
    return sum(tree.duration(s) for s in spans
               if s["name"].startswith("bench.") and not
               any(a["name"].startswith("bench.") for a in tree.ancestors(s)))
