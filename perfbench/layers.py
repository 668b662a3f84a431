"""Per-layer metrics of hierdro, measured from the outside by :mod:`spans`.

:func:`install` wraps the public functions of the nine modules plus
``solver.GroupSampler.draw``.  Hooks add counts that a time cannot give:
bytes written by ``save_csv``, rows read by ``load_csv``, reference
iterations of ``reference_optimum``, and for every latent-ascent endpoint
whether it lies on the ball boundary and whether it left the ball or
lowered the loss.

A ``.us`` metric of a per-step function (``model.*``, ``ambiguity.
inner_maximize``, ``ambiguity.project_ball``) averages the calls made inside
``solver.train_step``; ``calls_per_step`` counts those calls, at any depth,
per step.  Every other time averages all calls of the function.  Every
workload reports every metric: one of a function the run did not call is 0.
"""

from __future__ import annotations

import inspect
import os

from hierdro import (ambiguity, cli, convergence, datagen, evaluation, model, solver, tuning,
                     verification)

import checks
from spans import STEP, Tracer, install as install_spans
from workloads import FAST_CHECK_NAMES

MODULES = {
    "cli": cli, "datagen": datagen, "tuning": tuning, "solver": solver, "model": model,
    "ambiguity": ambiguity, "evaluation": evaluation, "convergence": convergence,
    "verification": verification,
}
STEP_MODEL = ("latent", "logits_from_latent", "cross_entropy", "grad_wrt_params", "sgd_step",
              "average_params", "flatten_grads", "params_norm", "grads_finite")


def _hook(fn, body):
    signature = inspect.signature(fn)

    def hook(tracer, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        body(tracer, bound.arguments, result)

    return hook


def _save_csv(tracer, a, result):
    tracer.count(("datagen.save_csv", "bytes"), os.path.getsize(a["path"]))


def _load_csv(tracer, a, result):
    tracer.count(("datagen.load_csv", "rows"), result.n)


def _reference(tracer, a, result):
    tracer.count(("convergence.reference_optimum", "iterations"), a["iterations"])


def _ascent(tracer, a, result):
    theta = a["theta"]
    rows, boundary, bad = checks.ascent_endpoints(
        theta.w_out, theta.b_out, a["z"], a["y"], a["eps_g"], result)
    for quantity, value in (("rows", rows), ("boundary", boundary), ("violations", bad)):
        tracer.count((tracer.trace_id, "ambiguity.inner_maximize", quantity), value)


def install(tracer: Tracer) -> None:
    hooks = {
        "datagen.save_csv": _hook(datagen.save_csv, _save_csv),
        "datagen.load_csv": _hook(datagen.load_csv, _load_csv),
        "convergence.reference_optimum": _hook(convergence.reference_optimum, _reference),
        "ambiguity.inner_maximize": _hook(ambiguity.inner_maximize, _ascent),
    }
    install_spans(tracer, "hierdro", MODULES, methods=[("solver", solver.GroupSampler, "draw")],
                  hooks=hooks)


def ascent_totals(tracer: Tracer) -> dict:
    totals = {"rows": 0, "boundary": 0, "violations": 0}
    for key, value in tracer.counters.items():
        if len(key) == 3 and key[1] == "ambiguity.inner_maximize":
            totals[key[2]] += value
    return totals


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Every per-layer metric, as {name: (value, unit)}; 0 where the traced
    run did not call the function (every workload reports every metric)."""
    out = {}

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(metric, name, scale, unit, in_step=None, self_time=False):
        count, total, self_s = tracer.calls(name, in_step)
        out[metric] = (ratio((self_s if self_time else total) * scale, count), unit)

    def counter_per_call(metric, name, quantity, unit):
        count = tracer.calls(name)[0]
        out[metric] = (ratio(tracer.counters.get((name, quantity), 0), count), unit)

    steps = tracer.calls(STEP)[0]

    def calls_in_step(match):
        return sum(agg.count for (_, name, _, in_step), agg in tracer.aggregates.items()
                   if in_step and match(name))

    for cmd in ("cmd_generate", "cmd_tune", "cmd_run"):
        per_call(f"cli.{cmd}.self_s", f"cli.{cmd}", 1.0, "s", self_time=True)
    for fn in ("make_spurious", "save_csv", "load_csv"):
        per_call(f"datagen.{fn}.ms", f"datagen.{fn}", 1e3, "ms")
    counter_per_call("datagen.save_csv.bytes", "datagen.save_csv", "bytes", "bytes")
    counter_per_call("datagen.load_csv.rows", "datagen.load_csv", "rows", "rows")
    per_call("tuning.order_1d.ms", "tuning.order_1d", 1e3, "ms")
    per_call("tuning.quantile_splits.ms", "tuning.quantile_splits", 1e3, "ms")
    per_call("tuning.tune_epsilon.self_ms", "tuning.tune_epsilon", 1e3, "ms", self_time=True)
    under = sum(1 for s in tracer.spans
                if s["name"] == "solver.train" and s["parent_name"] == "tuning.tune_epsilon")
    under += sum(agg.count for (_, name, parent, _), agg in tracer.aggregates.items()
                 if name == "solver.train" and parent == "tuning.tune_epsilon")
    out["tuning.tune_epsilon.trajectories"] = (ratio(under, tracer.calls("tuning.tune_epsilon")[0]),
                                               "count")

    out["solver.train.calls"] = (tracer.calls("solver.train")[0] / rounds, "count")
    per_call("solver.train_step.us", STEP, 1e6, "us")
    per_call("solver.train_step.self_us", STEP, 1e6, "us", self_time=True)
    out["solver.train_step.calls_per_step"] = (
        ratio(calls_in_step(lambda n: n.startswith(("model.", "ambiguity."))), steps), "calls/step")
    for fn in STEP_MODEL:
        name = f"model.{fn}"
        per_call(f"{name}.us", name, 1e6, "us", in_step=True)
        out[f"{name}.calls_per_step"] = (ratio(calls_in_step(lambda n: n == name), steps), "calls/step")
    per_call("model.grad_wrt_latent.us", "model.grad_wrt_latent", 1e6, "us", in_step=True)
    per_call("ambiguity.inner_maximize.us", "ambiguity.inner_maximize", 1e6, "us", in_step=True)
    per_call("ambiguity.project_ball.us", "ambiguity.project_ball", 1e6, "us", in_step=True)
    per_call("solver.GroupSampler.draw.us", "solver.GroupSampler.draw", 1e6, "us")
    per_call("solver.group_mean_losses.ms", "solver.group_mean_losses", 1e3, "ms")
    per_call("solver.update_beta.us", "solver.update_beta", 1e6, "us")
    ascent = ascent_totals(tracer)
    out["ambiguity.inner_maximize.boundary_share"] = (ratio(ascent["boundary"], ascent["rows"]), "ratio")
    for fn in ("ball_supremum", "taylor_gap", "w_infty_exact", "robust_risk_check"):
        per_call(f"ambiguity.{fn}.ms", f"ambiguity.{fn}", 1e3, "ms")

    per_call("evaluation.evaluate.ms", "evaluation.evaluate", 1e3, "ms")
    out["evaluation.evaluate.calls"] = (tracer.calls("evaluation.evaluate")[0] / rounds, "count")

    total = tracer.calls("convergence.reference_optimum")[1]
    iterations = tracer.counters.get(("convergence.reference_optimum", "iterations"), 0)
    out["convergence.reference_optimum.us_per_iteration"] = (ratio(total * 1e6, iterations), "us")
    per_call("convergence.rate_study.self_s", "convergence.rate_study", 1.0, "s", self_time=True)
    per_call("convergence.bound_constants.ms", "convergence.bound_constants", 1e3, "ms")
    for fn in (*FAST_CHECK_NAMES, "check_convergence_rate"):
        per_call(f"verification.{fn}.s", f"verification.{fn}", 1.0, "s")
    return out
