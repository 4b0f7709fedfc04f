"""Phase timers (untraced runs) and layer spans (traced runs).

Both work by replacing a function with a timing wrapper in every module
namespace that imported it, from outside the program: nothing under src/
is edited.  Phase timers wrap only the training and evaluation entry
points, a handful of calls per run.  The tracer wraps the public
functions of each layer and records one span per call: name, start, end
and parent, kept in memory and written when the run ends.

Span names are "<layer>.<function>"; the layer is the program module the
function belongs to.  Spans named "trace.*" cover the tracer's own
bookkeeping (distinct-row counts, graph walks), so that it is not billed
to the layer that happened to be running.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter

import numpy as np

LAYERS = ("markets", "nn", "stopping", "hedging", "merton", "oracles",
          "experiments", "trace")

# spans whose subtree is policy evaluation (sharp first crossing, wealth
# rollout, out-of-sample utility)
EVAL_SPANS = ("stopping.evaluate_price", "hedging.wealth_rollout",
              "merton.utility_value")


class Patches:
    """Function replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        if isinstance(owner, str):
            owner = importlib.import_module(f"derm_lab.{owner}")
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# phase timers


def _iterations(result) -> int:
    if isinstance(result, list):  # pooled job results
        return sum(r["iterations_run"] for r in result)
    if isinstance(result, dict):  # merton.train_portfolio
        return result["iterations_run"]
    return result.iterations_run  # TrainReport


def _eval_paths(args, result) -> int:
    if hasattr(result, "n_paths"):  # PriceEstimate
        return result.n_paths
    if hasattr(result, "wealth"):   # HedgeOutcome
        return result.wealth.shape[0]
    return args[2].shape[0]         # merton.utility_value(spec, net, z1, z2)


class Phases:
    """Coarse wall-clock timers on a workload's training and evaluation
    entry points.  Evaluation calls made from inside training (Merton's
    validation) are not counted as evaluation."""

    def __init__(self):
        self.train_s = 0.0
        self.train_iters = 0
        self.eval_s = 0.0
        self.eval_paths = 0
        self.losses_finite = True
        self._in_train = 0

    def install(self, patches: Patches, train_entry, eval_entry) -> None:
        def train_wrapper(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                self._in_train += 1
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.train_s += time.perf_counter() - t0
                    self._in_train -= 1
                self.train_iters += _iterations(result)
                if isinstance(result, list):
                    self.losses_finite &= all(
                        bool(np.all(np.isfinite(r["losses"]))) for r in result)
                return result
            return timed

        def eval_wrapper(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                if self._in_train:
                    return fn(*args, **kwargs)
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                self.eval_s += time.perf_counter() - t0
                self.eval_paths += _eval_paths(args, result)
                return result
            return timed

        patches.wrap(*train_entry, train_wrapper)
        patches.wrap(*eval_entry, eval_wrapper)


# ----------------------------------------------------------------------
# tracer


class Tracer:
    """In-memory span recorder for one single-process run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent index, start ns, end ns]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def span(self, name: str, on_result=None):
        """Wrapper factory: one span per call; on_result(args, result)
        records counts after the span closes."""
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if on_result is not None:
                    on_result(args, result)
                return result
            return traced
        return make

    # -- wrappers with extra bookkeeping -----------------------------------

    def _train(self, layer: str):
        """nn.train as imported by `layer`; its objective closure gets a
        span of the calling layer."""
        def make(fn):
            @functools.wraps(fn)
            def traced(objective, *args, **kwargs):
                inner = self.span(f"{layer}.objective")(objective)
                idx = self.open("nn.train")
                try:
                    report = fn(inner, *args, **kwargs)
                finally:
                    self.close(idx)
                self.counts["train.iterations"] += report.iterations_run
                return report
            return traced
        return make

    def _forward(self, fn):
        @functools.wraps(fn)
        def traced(net, x, *args, **kwargs):
            idx = self.open("trace.distinct_rows")
            rows = np.asarray(getattr(x, "data", x))
            self.counts["nn.forward.rows"] += rows.shape[0]
            self.counts["nn.forward.distinct_rows"] += _distinct_rows(rows)
            self.close(idx)
            idx = self.open("nn.forward")
            try:
                return fn(net, x, *args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def _forward_eval(self, fn):
        @functools.wraps(fn)
        def traced(net, x, *args, **kwargs):
            in_eval = any(self.spans[i][0] in EVAL_SPANS for i in self._stack)
            idx = self.open("nn.forward_eval")
            try:
                result = fn(net, x, *args, **kwargs)
            finally:
                self.close(idx)
            if in_eval:
                self.counts["nn.forward_eval.rows"] += result.shape[0]
                self.spans[idx][0] = "nn.forward_eval.policy"
            return result
        return traced

    def _backward(self, fn):
        @functools.wraps(fn)
        def traced(loss, *args, **kwargs):
            idx = self.open("trace.graph_walk")
            self.counts["nn.graph_nodes"] += _graph_nodes(loss)
            self.counts["nn.backward.calls"] += 1
            self.close(idx)
            idx = self.open("nn.backward")
            try:
                return fn(loss, *args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def _utility_value(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = ("merton.validation" if self.inside("merton.train_portfolio")
                    else "merton.utility_value")
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if name == "merton.utility_value":
                self.counts["eval.paths"] += args[2].shape[0]
            return result
        return traced

    def _lsm_fit(self, fn):
        @functools.wraps(fn)
        def counted(x, y, fallbacks):
            before = len(fallbacks)
            beta = fn(x, y, fallbacks)
            self.counts["oracles.lsm_price.fallback_dates"] += len(fallbacks) - before
            return beta
        return counted

    def install(self, patches: Patches) -> None:
        from derm_lab import nn
        from derm_lab.nn import tensor

        def path_steps(key):
            def record(args, batch):
                self.counts[key] += batch.prices.shape[0] * (batch.prices.shape[1] - 1)
            return record

        def add(key, get):
            def record(args, result):
                self.counts[key] += get(args, result)
            return record

        gbm = self.span("markets.simulate_gbm", path_steps("markets.simulate_gbm.path_steps"))
        for owner in ("markets", "stopping", "oracles.lsm"):
            patches.wrap(owner, "simulate_gbm", gbm)
        heston = self.span("markets.simulate_heston",
                           path_steps("markets.simulate_heston.path_steps"))
        for owner in ("markets", "hedging", "experiments"):
            patches.wrap(owner, "simulate_heston", heston)

        patches.wrap(nn.MLP, "forward", self._forward)
        patches.wrap(nn.MLP, "forward_eval", self._forward_eval)
        patches.wrap(tensor.Tensor, "backward", self._backward)
        adam = self.span("nn.adam_step", add("nn.adam_step.calls", lambda a, r: 1))
        for owner in ("nn.train", "merton"):
            patches.wrap(owner, "adam_step", adam)
        patches.wrap("stopping", "train", self._train("stopping"))
        patches.wrap("hedging", "train", self._train("hedging"))

        patches.wrap("experiments", "train_boundary", self.span("stopping.train_boundary"))
        patches.wrap("experiments", "evaluate_price", self.span(
            "stopping.evaluate_price", add("eval.paths", lambda a, r: r.n_paths)))
        patches.wrap("experiments", "train_price_and_hedge",
                     self.span("hedging.train_price_and_hedge"))
        patches.wrap("experiments", "wealth_rollout", self.span(
            "hedging.wealth_rollout", add("eval.paths", lambda a, r: r.wealth.shape[0])))
        patches.wrap("experiments", "run_single_repeat", self.span("merton.run_single_repeat"))
        patches.wrap("merton", "train_portfolio", self.span(
            "merton.train_portfolio", add("train.iterations", lambda a, r: r["iterations_run"])))
        patches.wrap("merton", "utility_value", self._utility_value)

        patches.wrap("experiments", "american_put_fd", self.span("oracles.american_put_fd"))
        patches.wrap("experiments", "heston_call_quote", self.span("oracles.heston_call_quote"))
        patches.wrap("oracles.lsm", "lsm_price", self.span("oracles.lsm_price"))
        patches.wrap("oracles.lsm", "_fit", self._lsm_fit)


def _distinct_rows(rows: np.ndarray) -> int:
    """Number of distinct rows; a lexsort is much cheaper than
    np.unique(axis=0) on float rows."""
    ordered = rows[np.lexsort(rows.T[::-1])]
    return 1 + int(np.count_nonzero(np.any(ordered[1:] != ordered[:-1], axis=1)))


def _graph_nodes(root) -> int:
    """Distinct Tensor nodes reachable from root through parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


# ----------------------------------------------------------------------
# span analysis


def self_times(spans: list) -> list[int]:
    """Span duration minus the durations of its direct children, in ns."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_spans(spans: list) -> list[str]:
    """Nesting and non-negative self time; returns the violations."""
    problems = []
    for i, (name, parent, start, end) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            _, _, p_start, p_end = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {i} {name} leaves its parent {spans[parent][0]}")
    for i, own in enumerate(self_times(spans)):
        if own < 0:
            problems.append(f"span {i} {spans[i][0]} has negative self time {own} ns")
    return problems


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Per-layer metrics of one traced run (times of spans under the
    run_experiment roots only)."""
    own = self_times(spans)
    total = sum(end - start for name, parent, start, end in spans
                if parent < 0 and name == "experiments.run_experiment")
    dur = Counter()
    self_ns = Counter()
    calls = Counter()
    layer_self = Counter()
    for (name, _, start, end), s in zip(spans, own):
        dur[name] += end - start
        self_ns[name] += s
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += s

    iters = counts["train.iterations"]
    paths = counts["eval.paths"]

    def per(value, n, scale=1.0):
        return value * scale / n if n else 0.0

    rows = counts["nn.forward.rows"]
    eval_rows = counts["nn.forward_eval.rows"]
    metrics = {
        "markets.simulate_gbm.ns_per_path_step":
            per(dur["markets.simulate_gbm"], counts["markets.simulate_gbm.path_steps"]),
        "markets.simulate_heston.ns_per_path_step":
            per(dur["markets.simulate_heston"], counts["markets.simulate_heston.path_steps"]),
        "nn.forward.ns_per_row": per(dur["nn.forward"], rows),
        "nn.forward.rows_per_iter": per(rows, iters),
        "nn.forward.distinct_row_frac": per(counts["nn.forward.distinct_rows"], rows),
        "nn.backward.ms_per_iter": per(dur["nn.backward"], iters, 1e-6),
        "nn.graph_nodes_per_iter": per(counts["nn.graph_nodes"], counts["nn.backward.calls"]),
        "nn.forward_eval.ns_per_row": per(dur["nn.forward_eval.policy"], eval_rows),
        "nn.forward_eval.rows_per_path": per(eval_rows, paths),
        "nn.adam.us_per_step": per(dur["nn.adam_step"], calls["nn.adam_step"], 1e-3),
        "nn.train.self_ms_per_iter": per(self_ns["nn.train"], iters, 1e-6),
        "stopping.relaxed_graph.ms_per_iter": per(self_ns["stopping.objective"], iters, 1e-6),
        "stopping.first_crossing.ns_per_path": per(self_ns["stopping.evaluate_price"], paths),
        "hedging.loss_graph.ms_per_iter": per(self_ns["hedging.objective"], iters, 1e-6),
        "merton.train_portfolio.self_ms_per_iter":
            per(self_ns["merton.train_portfolio"], iters, 1e-6),
        "merton.validation.ms_per_call":
            per(dur["merton.validation"], calls["merton.validation"], 1e-6),
        "oracles.american_put_fd.ms": dur["oracles.american_put_fd"] * 1e-6,
        "oracles.lsm_price.ms": dur["oracles.lsm_price"] * 1e-6,
        "oracles.lsm_price.fallback_dates": counts["oracles.lsm_price.fallback_dates"],
        "oracles.heston_call_quote.ms": dur["oracles.heston_call_quote"] * 1e-6,
        "experiments.self_ms": layer_self["experiments"] * 1e-6,
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = per(layer_self[layer], total)
    return metrics


# metrics that are counts of work, not times: they must repeat exactly
COUNT_METRICS = ("nn.forward.rows_per_iter", "nn.forward.distinct_row_frac",
                 "nn.graph_nodes_per_iter", "nn.forward_eval.rows_per_path",
                 "oracles.lsm_price.fallback_dates", "experiments.artifact_bytes")


def median_metrics(runs: list[dict]) -> dict:
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
