"""Spans around calls into patientflow's public functions, added from outside.

``instrument`` replaces each function in ``TRACED`` with a wrapper that
records a span: name, start, end, parent span and a few attributes. The
function is replaced in its defining module and in every patientflow
module that imported it by name (``cli`` binds ``replicate`` and
``parse_event_log`` that way), so every call site is seen. Per-event
functions (``estimators.sample``, ``pathways.assign``,
``pathways.next_department``) are deliberately left alone: a wrapper
would cost more than the call. Their work is counted from the results.

Spans stay in memory until the operation ends and are then written as
JSONL. Spans named ``bench.*`` are the benchmark's own work inside a
traced operation (the ``--jobs`` shadow run and the invariant checks);
the analysis in ``layers.py`` keeps them out of every layer's time. That
work runs in a forked copy of the operation's process, so it leaves the
operation's heap and garbage-collector state as it found them.

This module imports only the standard library; patientflow is imported
by ``instrument`` when the operation asks for it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pickle
import sys
import time
import traceback

SHADOW_JOBS = 2  # workers for the --jobs check of a serial replicate call

# (module, function) pairs wrapped in a traced operation.
TRACED = (
    ("synthehr", "generate"),
    ("synthehr", "write_outputs"),
    ("domain", "parse_event_log"),
    ("domain", "bucketize"),
    ("domain", "extract_trajectories"),
    ("inflow", "fit_holt_winters"),
    ("inflow", "forecast"),
    ("inflow", "evaluate"),
    ("estimators", "fit_mixture_em"),
    ("estimators", "fit_conditional"),
    ("estimators", "fit_lognormal"),
    ("estimators", "ks_statistic"),
    ("pathways", "cluster"),
    ("pathways", "fit_transition_matrix"),
    ("engine", "run"),
    ("engine", "bucket_census"),
    ("engine", "write_census_csv"),
    ("engine", "write_patients_csv"),
    ("engine", "write_summary_json"),
    ("experiment", "run_experiment"),
    ("experiment", "census_error"),
)


class Tracer:
    """In-memory span recorder for one single-threaded operation."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def start(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = self.start(name, **attrs)
        try:
            yield rec
        finally:
            self.end(rec)

    def is_open(self, name: str) -> bool:
        return any(s["name"] == name for s in self._open)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def rebind(func, wrapper) -> None:
    """Replace ``func`` by ``wrapper`` wherever a patientflow module binds it."""
    for name, module in list(sys.modules.items()):
        if name != "patientflow" and not name.startswith("patientflow."):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                setattr(module, attr, wrapper)


def _span_wrapper(tracer: Tracer, func, name: str, describe=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = tracer.start(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(span)
        if describe is not None:
            span["attrs"].update(describe(args, result))
        return result

    return wrapper


def _describe_run(args, result) -> dict:
    return {
        "replication": result.replication,
        "patients": len(result.patients),
        "stays": sum(len(p.stays) for p in result.patients),
    }


_DESCRIBE = {
    "engine.run": _describe_run,
    "synthehr.generate": lambda args, result: {"patients": len(result.profiles)},
    "domain.parse_event_log": lambda args, result: {"rows": len(result[0])},
}


class Recorder:
    """What one operation learns about the program from outside.

    ``sim_patients`` is counted in every operation. The rest is filled
    in only by a traced operation: the engine counts, the pickled size
    of the results, and every broken invariant as a message.
    """

    def __init__(self) -> None:
        self.sim_patients = 0
        self.counts: dict[str, float] = {}
        self.failures: list[str] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def instrument(recorder: Recorder, tracer: Tracer | None) -> None:
    """Wrap the program's public functions for one operation.

    Without a tracer only ``engine.replicate`` is wrapped, to count the
    simulated patients. With one, every function in ``TRACED`` records
    spans, and each ``replicate`` call is repeated, in a forked copy, at
    the other side of the ``--jobs`` contract (1 if the program asked for
    more, else ``SHADOW_JOBS``) so both can be timed and compared.
    """
    import importlib

    from patientflow import engine

    replicate = engine.replicate

    if tracer is None:
        def counted_replicate(config, jobs=1, census_bucket=24.0):
            results, summary = replicate(config, jobs, census_bucket)
            recorder.sim_patients += sum(len(r.patients) for r in results)
            return results, summary

        rebind(replicate, counted_replicate)
        return

    for module_name, func_name in TRACED:
        module = importlib.import_module(f"patientflow.{module_name}")
        func = getattr(module, func_name)
        name = f"{module_name}.{func_name}"
        rebind(func, _span_wrapper(tracer, func, name, _DESCRIBE.get(name)))

    def traced_replicate(config, jobs=1, census_bucket=24.0):
        stack = None
        if tracer.is_open("experiment.run_experiment"):
            poisson = isinstance(config.arrival_driver, engine.PoissonBaseline)
            stack = "stack_a" if poisson else "stack_b"
        with tracer.span("engine.replicate", jobs=jobs, stack=stack):
            results, summary = replicate(config, jobs, census_bucket)
        recorder.sim_patients += sum(len(r.patients) for r in results)
        other = 1 if jobs > 1 else SHADOW_JOBS

        def shadow():
            with tracer.span("bench.replicate", jobs=other, stack=stack):
                shadow_results, shadow_summary = replicate(config, other, census_bucket)
            return check_replication(config, results, summary,
                                     shadow_results, shadow_summary)

        with tracer.span("bench.fork"):
            failures, counts = in_forked_copy(tracer, shadow)
        recorder.failures.extend(failures)
        for key, value in counts.items():
            recorder.add(key, value)
        return results, summary

    rebind(replicate, traced_replicate)

    cli_main = sys.modules["patientflow.cli"].main

    def traced_main(argv=None):
        command = argv[0] if argv else "none"
        with tracer.span(f"cli.{command}"):
            return cli_main(argv)

    rebind(cli_main, traced_main)


def in_forked_copy(tracer: Tracer, work):
    """Run ``work() -> (failures, counts)`` in a forked copy of this process.

    Spans the copy records are appended to ``tracer``; it is forked inside
    an open span, so they nest under it. An exception in the copy comes
    back as a failure.
    """
    first = len(tracer.spans)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the copy must never return into the operation's code
        status = 1
        try:
            os.close(read_fd)
            try:
                value = work()
            except BaseException:
                value = ([traceback.format_exc()], {})
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(pickle.dumps((value, tracer.spans[first:])))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        return [f"forked check process ended with status {status}"], {}
    # the bytes come from this process's own fork
    value, spans = pickle.loads(payload)
    tracer.spans.extend(spans)
    return value


def check_replication(config, results, summary, shadow_results, shadow_summary):
    """Invariants of one ``replicate`` call, checked on its results.

    * every replication conserves patients: admissions equal discharges
      plus those still in the system, recounted from the patient records;
    * every census step lies in [0, capacity];
    * the run at the other ``--jobs`` setting gives the identical summary
      and per-replication aggregates.

    Returns the failures, as messages, and the engine counts.
    """
    failures = []
    capacity = {d.name: d.bed_capacity for d in config.departments}
    for res in (*results, *shadow_results):
        cohort = [p for p in res.patients if p.admission_time >= res.warm_up]
        discharged = sum(1 for p in cohort if p.discharge_time is not None)
        if not (res.admissions == len(cohort) and res.discharges == discharged
                and res.admissions == res.discharges + res.in_system):
            failures.append(
                f"replication {res.replication}: admissions {res.admissions} != "
                f"discharges {res.discharges} + in_system {res.in_system}")
        for dept, steps in res.census.items():
            cap = capacity[dept]
            low = min(occupied for _, occupied in steps)
            high = max(occupied for _, occupied in steps)
            if low < 0 or (cap is not None and high > cap):
                failures.append(f"replication {res.replication}: {dept} census in "
                                f"[{low}, {high}], capacity {cap}")

    def aggregates(rs):
        return [(r.replication, r.admissions, r.discharges, r.in_system,
                 r.truncated_walks, r.avg_census, r.utilization) for r in rs]

    if summary != shadow_summary or aggregates(results) != aggregates(shadow_results):
        failures.append("replicate results differ between the two --jobs settings")

    stays = [s for r in results for p in r.patients for s in p.stays]
    waits = [s.start_time - s.request_time for s in stays]
    counts = {
        "engine.patients": sum(len(r.patients) for r in results),
        "engine.stays": len(stays),
        "engine.waited_stays": sum(1 for w in waits if w > 0.0),
        "engine.wait_hours": sum(waits),
        "engine.truncated_walks": sum(r.truncated_walks for r in results),
        "engine.in_system": sum(r.in_system for r in results),
        "engine.replicate.result_bytes": sum(len(pickle.dumps(r)) for r in results),
    }
    return failures, counts
