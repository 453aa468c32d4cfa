"""Outside-in layer trace of the casino-ewac package.

While a ``Tracer`` is active, each function in ``TARGETS`` is replaced by a
wrapper in every ``casino_ewac`` module that holds a reference to it.  The
modules use ``from ... import``, so a function is looked up in its caller's
namespace (``casino_ewac.sweeps.smooth``, ``casino_ewac.engine.solve``), not
only where it is defined.  Each call records a span with its parent, and
counts taken from its arguments or its return value (pivot counts from
``LpSolution.iterations`` and ``EwacBounds.iterations``).  A tracer made
with ``measure_alloc`` runs ``tracemalloc`` inside ``sample_wac`` calls;
it slows them several-fold, so it is kept apart from the timed spans.
"""

import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

PACKAGE = "casino_ewac"

# (module, function) pairs to wrap; spans are named module.function.
TARGETS = (
    ("cli", "main"),
    ("hmm", "smooth"),
    ("hmm", "simulate"),
    ("transport", "solve"),
    ("engine", "ewac_bounds"),
    ("engine", "ewac_objective"),
    ("engine", "inhomogeneous_bounds"),
    ("engine", "copula_pmf"),
    ("engine", "ewac_of_theta"),
    ("sweeps", "horizon_sweep"),
    ("sweeps", "eta_sweep"),
    ("sweeps", "sample_wac"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


def _record_smooth(span, bound, result):
    span.attrs["periods"] = len(bound.arguments["obs"])


def _record_solve(span, bound, result):
    span.attrs["pivots"] = result.iterations
    span.attrs["optimal"] = result.status == "optimal"


def _record_bounds(span, bound, result):
    span.name = f"{span.name}.{result.constraint_tag}"
    span.attrs["pivots"] = sum(result.iterations)


def _record_sample_wac(span, bound, result):
    args = bound.arguments
    span.attrs["sample_periods"] = len(args["obs"]) * int(args["count"])


_RECORDERS = {
    "hmm.smooth": _record_smooth,
    "transport.solve": _record_solve,
    "engine.ewac_bounds": _record_bounds,
    "sweeps.sample_wac": _record_sample_wac,
}


class Tracer:
    """Collects spans from every call into ``TARGETS`` while active.

    Use ``with tracer:`` around the traced calls; spans accumulate across
    activations until read.
    """

    def __init__(self, measure_alloc=False):
        self.measure_alloc = measure_alloc
        self.spans = []
        self._stack = []
        self._patches = []

    def missing(self):
        """Names of targets the package no longer defines."""
        return {f"{m}.{f}" for m, f in TARGETS
                if not hasattr(sys.modules.get(f"{PACKAGE}.{m}"), f)}

    def __enter__(self):
        modules = [mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"),
                               func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name, original):
        signature = inspect.signature(original)
        record = _RECORDERS.get(name)
        measure_alloc = self.measure_alloc and name == "sweeps.sample_wac"

        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, 0.0)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            started = measure_alloc and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if measure_alloc:
                    span.attrs["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                if started:
                    tracemalloc.stop()
            if record is not None:
                record(span, signature.bind(*args, **kwargs), result)
            return result

        wrapper.__wrapped__ = original
        return wrapper


# Per-layer metrics: name -> (unit, better, target the metric needs).
METRICS = {
    "hmm.smooth.calls": ("count", "lower", "hmm.smooth"),
    "hmm.smooth.s": ("s", "lower", "hmm.smooth"),
    "hmm.smooth.periods": ("count", "lower", "hmm.smooth"),
    "hmm.smooth.ns_per_period": ("ns", "lower", "hmm.smooth"),
    "hmm.simulate.calls": ("count", "lower", "hmm.simulate"),
    "hmm.simulate.s": ("s", "lower", "hmm.simulate"),
    "transport.solve.calls": ("count", "lower", "transport.solve"),
    "transport.solve.s": ("s", "lower", "transport.solve"),
    "transport.solve.pivots": ("count", "lower", "transport.solve"),
    "transport.solve.optimal_ratio": ("ratio", "higher", "transport.solve"),
    "engine.ewac_bounds.none.calls": ("count", "lower", "engine.ewac_bounds"),
    "engine.ewac_bounds.none.s": ("s", "lower", "engine.ewac_bounds"),
    "engine.ewac_bounds.none.pivots": ("count", "lower", "engine.ewac_bounds"),
    "engine.ewac_bounds.cs.calls": ("count", "lower", "engine.ewac_bounds"),
    "engine.ewac_bounds.cs.s": ("s", "lower", "engine.ewac_bounds"),
    "engine.ewac_bounds.cs.pivots": ("count", "lower", "engine.ewac_bounds"),
    **{f"engine.{f}.{m}": (unit, "lower", f"engine.{f}")
       for f in ("ewac_objective", "inhomogeneous_bounds", "copula_pmf",
                 "ewac_of_theta")
       for m, unit in (("calls", "count"), ("s", "s"))},
    "sweeps.horizon_sweep.s": ("s", "lower", "sweeps.horizon_sweep"),
    "sweeps.horizon_sweep.self_s": ("s", "lower", "sweeps.horizon_sweep"),
    "sweeps.horizon_sweep.smoothed_periods": ("count", "lower",
                                              "sweeps.horizon_sweep"),
    "sweeps.eta_sweep.s": ("s", "lower", "sweeps.eta_sweep"),
    "sweeps.eta_sweep.self_s": ("s", "lower", "sweeps.eta_sweep"),
    "sweeps.sample_wac.calls": ("count", "lower", "sweeps.sample_wac"),
    "sweeps.sample_wac.s": ("s", "lower", "sweeps.sample_wac"),
    "sweeps.sample_wac.sample_periods": ("count", "lower", "sweeps.sample_wac"),
    "sweeps.sample_wac.ns_per_sample_period": ("ns", "lower",
                                               "sweeps.sample_wac"),
    "sweeps.sample_wac.peak_alloc_mb": ("MB", "lower", "sweeps.sample_wac"),
    "cli.main.calls": ("count", "lower", "cli.main"),
    "cli.main.s": ("s", "lower", "cli.main"),
    "cli.self_s": ("s", "lower", "cli.main"),
    "cli.out_bytes": ("B", "lower", "cli.main"),
    "trace.overhead_frac": ("ratio", "lower", None),
}


def _ns_per(total_s, count):
    return 1e9 * total_s / count if count else 0.0


def layer_metrics(tracer, rounds, out_bytes, overhead_frac, alloc_tracer):
    """Per-layer metrics, per traced round; None where a target is gone.

    Peak allocations come from ``alloc_tracer``, whose spans are not timed.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.seconds

    def named(name):
        return [(i, s) for i, s in enumerate(spans) if s.name == name]

    def total(name, attr=None):
        return sum(s.seconds if attr is None else s.attrs[attr]
                   for _, s in named(name))

    def self_s(name):
        return sum(s.seconds - child_s[i] for i, s in named(name))

    def under(i, ancestor):
        parent = spans[i].parent
        while parent is not None:
            if spans[parent].name == ancestor:
                return True
            parent = spans[parent].parent
        return False

    # name.calls, name.s, name.self_s and name.pivots sum over spans of name.
    aggregate = {"calls": lambda name: len(named(name)), "s": total,
                 "self_s": self_s, "pivots": lambda name: total(name, "pivots")}
    values = {}
    for metric in METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind in aggregate:
            values[metric] = aggregate[kind](layer)
    smooth_periods = total("hmm.smooth", "periods")
    sample_periods = total("sweeps.sample_wac", "sample_periods")
    solves = named("transport.solve")
    values.update({
        "hmm.smooth.periods": smooth_periods,
        "hmm.smooth.ns_per_period": _ns_per(total("hmm.smooth"), smooth_periods),
        "transport.solve.optimal_ratio": (
            sum(s.attrs["optimal"] for _, s in solves) / len(solves)
            if solves else 0.0),
        "sweeps.horizon_sweep.smoothed_periods": sum(
            s.attrs["periods"] for i, s in named("hmm.smooth")
            if under(i, "sweeps.horizon_sweep")),
        "sweeps.sample_wac.sample_periods": sample_periods,
        "sweeps.sample_wac.ns_per_sample_period": _ns_per(
            total("sweeps.sample_wac"), sample_periods),
        "cli.self_s": self_s("cli.main"),
        "cli.out_bytes": out_bytes,
        "trace.overhead_frac": overhead_frac,
    })

    # Sums become per-round means; ratios, peaks and the overhead stay.
    per_round = {"calls", "s", "periods", "pivots", "self_s",
                 "smoothed_periods", "sample_periods", "out_bytes"}
    for name in values:
        if name.rsplit(".", 1)[1] in per_round:
            values[name] /= rounds
    peaks = [s.attrs["peak_alloc"] for s in alloc_tracer.spans
             if s.name == "sweeps.sample_wac"]
    values["sweeps.sample_wac.peak_alloc_mb"] = max(peaks, default=0) / 2**20

    missing = tracer.missing()
    return {name: {"value": None if target in missing else values[name],
                   "unit": unit}
            for name, (unit, _, target) in METRICS.items()}


def shares(tracer):
    """Each layer's summed span time as a share of all ``cli.main`` time."""
    totals = {}
    for span in tracer.spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.seconds
    whole = totals.get("cli.main", 0.0)
    return {name: s / whole for name, s in sorted(totals.items())} if whole else {}
