"""Run one ``qident`` command line in this interpreter, with spans.

Usage: python3 bench/trace_op.py <qident arguments...>

The program is imported from ``PYTHONPATH`` as usual.  Before the command
runs, this script replaces the public functions and methods of every
layer with wrappers that record a span (name, start, end, parent) around
each call; nothing inside the package is edited.  The command's own
output is captured, and the script prints one JSON object: the exit code,
that output, the summed self time and counts per layer metric, the spans,
the lowest trusted nonzero exponent of every expanded side, and the size
of every family enumeration.

Calls made once per element (enumeration steps, map applications,
membership tests) are folded: they keep one record per (nearest recorded
span, parent name, name) with a call count and summed times, instead of
one span per call.
"""

import sys
import time

_T0 = time.perf_counter()
import qident  # noqa: E402  (the import itself is measured)
from qident import bijections, cli, dsl, identities, partitions, series  # noqa: E402
_T1 = time.perf_counter()

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

SERIES_TYPES = (series.QSeries, series.MultiSeries)
MODULES = (series, partitions, bijections, identities, dsl, cli)


def replace_everywhere(fname: str, make) -> None:
    """Replace the function ``fname`` by ``make(original)`` in every layer
    module that holds it, so that callers which look the name up when they
    run reach the wrapper.  A name no module has is left alone."""
    found = [m for m in MODULES if callable(getattr(m, fname, None))]
    if not found:
        return
    orig = getattr(found[0], fname)
    wrapper = make(orig)
    for module in found:
        if getattr(module, fname) is orig:
            setattr(module, fname, wrapper)


class Tracer:
    """Spans kept in memory; self time is a span's duration minus the time
    its child spans cover."""

    def __init__(self, origin: float):
        self.origin = origin
        self.spans = []          # [id, parent, name, start, end, self]
        self.folded = {}         # (anchor, parent name, name) -> [calls, total, self]
        self.stack = []          # [id, name, child_time, anchor id]
        self.self_time = {}      # name -> summed self time
        self.counts = {"series.terms": 0, "partitions.elements": 0,
                       "dsl.summands": 0}
        self._next_id = 0

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def record(self, name, start, end):
        """A top-level span measured elsewhere (the import of the package)."""
        self.spans.append([self._new_id(), None, name, start - self.origin,
                           end - self.origin, end - start])
        self.self_time[name] = self.self_time.get(name, 0.0) + end - start

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def call(self, name, fn, args, kwargs, fold=False):
        parent = self.stack[-1] if self.stack else None
        parent_anchor = parent[3] if parent else None
        # a folded span has no id of its own: it, and any span inside it,
        # hangs from the nearest recorded span
        span_id = None if fold else self._new_id()
        frame = [span_id, name, 0.0, parent_anchor if fold else span_id]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            dur = end - start
            own = dur - frame[2]
            if parent is not None:
                parent[2] += dur
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            if fold:
                key = (parent_anchor, parent[1] if parent else None, name)
                rec = self.folded.setdefault(key, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += own
            else:
                self.spans.append([span_id, parent_anchor, name,
                                   start - self.origin, end - self.origin, own])


def _terms(value) -> int:
    if isinstance(value, series.QSeries):
        return len(value.coeffs)
    return sum(len(s.coeffs) for s in value.entries.values())


def _lowest_trusted(value):
    """Lowest q-exponent with a nonzero coefficient below the value's
    truncation order, or None."""
    if isinstance(value, series.QSeries):
        value = series.MultiSeries.from_qseries(value)
    exps = [e for s in value.entries.values() for e, c in s.coeffs.items()
            if c and (value.trunc is None or e < value.trunc)]
    return min(exps) if exps else None


class Instrument:
    """Installs the wrappers for one traced command."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.side_lows = []
        self.domains = []

    # -- wrapper factories -------------------------------------------------

    def span(self, name, fn, fold=False, hook=None):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs, fold)
            if hook is not None:
                hook(out)
            return out
        return wrapper

    def series_span(self, name, fn, boundary_only=False):
        """A series-layer call.  Results handed to another layer add their
        nonzero coefficients to series.terms.  With ``boundary_only`` the
        call gets a span only when a caller outside the layer makes it."""
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = tracer.parent_name()
            inside = caller is not None and caller.startswith("series.")
            if boundary_only and inside:
                return fn(*args, **kwargs)
            out = tracer.call(name, fn, args, kwargs)
            if not inside and isinstance(out, SERIES_TYPES):
                tracer.counts["series.terms"] += _terms(out)
            return out
        return wrapper

    # -- layers ------------------------------------------------------------

    def install(self):
        self._series()
        self._partitions()
        self._bijections()
        self._identities()
        self._dsl()

    def _series(self):
        methods = {
            "series.mul": ("mul", "__mul__", "__rmul__"),
            "series.invert": ("invert", "invert_unit"),
            "series.compare": ("first_mismatch",),
            "series.exact": ("exact_div",),
        }
        other = ("add", "__add__", "__radd__", "shift", "shift_q", "truncate",
                 "power", "__pow__", "subst_aux", "scale", "neg")
        for cls in SERIES_TYPES:
            made = {}  # one wrapper per function, shared by its aliases

            def wrap(attr, make):
                orig = cls.__dict__.get(attr)
                if orig is not None:
                    if orig not in made:
                        made[orig] = make(orig)
                    setattr(cls, attr, made[orig])

            for name, attrs in methods.items():
                for attr in attrs:
                    wrap(attr, lambda fn: self.series_span(name, fn))
            for attr in other:
                wrap(attr, lambda fn: self.series_span(
                    "series.other", fn, boundary_only=True))
        for fname, name in (("poch_finite", "series.poch"),
                            ("poch_infinite", "series.poch"),
                            ("qbinom", "series.exact"),
                            ("qq_factorial", "series.exact")):
            replace_everywhere(fname, lambda fn: self.series_span(name, fn))

    def _partitions(self):
        tracer = self.tracer
        domains = self.domains

        def traced_enumerate(orig_enum):
            @functools.wraps(orig_enum)
            def enumerate_domain(name, n=None, k=None, weight_cap=None):
                it = iter(orig_enum(name, n=n, k=k, weight_cap=weight_cap))
                rec = {"name": name, "n": n, "k": k, "cap": weight_cap,
                       "count": 0, "drained": False}
                domains.append(rec)

                def drain():
                    while True:
                        try:
                            item = tracer.call("partitions.enumerate",
                                               it.__next__, (), {}, fold=True)
                        except StopIteration:
                            rec["drained"] = True
                            return
                        rec["count"] += 1
                        tracer.counts["partitions.elements"] += 1
                        yield item
                return drain()
            return enumerate_domain

        def traced_validator(orig_validator):
            made = {}

            @functools.wraps(orig_validator)
            def domain_validator(name):
                if name not in made:
                    made[name] = self.span("partitions.validate",
                                           orig_validator(name), fold=True)
                return made[name]
            return domain_validator

        replace_everywhere("enumerate_domain", traced_enumerate)
        replace_everywhere("domain_validator", traced_validator)

    def _bijections(self):
        for fname in ("phi", "psi", "tau", "rho", "durfee_split", "nu3_forward"):
            replace_everywhere(fname, lambda fn: self.span(
                "bijections.forward", fn, fold=True))
        for fname in ("phi_inv", "psi_inv", "tau_complement", "rho_inv",
                      "durfee_join", "nu3_inverse"):
            replace_everywhere(fname, lambda fn: self.span(
                "bijections.inverse", fn, fold=True))
        replace_everywhere("check_bijection",
                           lambda fn: self.span("bijections.check", fn))

    def _identities(self):
        keep_low = self.keep_low
        for iid, case in list(identities.REGISTRY.items()):
            fields = {
                side: self.span("identities.closed", fn, hook=keep_low)
                for side in ("lhs_builder", "rhs_builder")
                if callable(fn := getattr(case, side, None))
            }
            if getattr(case, "comb_builders", None):
                fields["comb_builders"] = {
                    side: self.span("identities.enum", fn)
                    for side, fn in case.comb_builders.items()
                }
            identities.REGISTRY[iid] = dataclasses.replace(case, **fields)
        replace_everywhere("verify", lambda fn: self.span("identities.verify", fn))
        for fname in ("p_omega", "p_nu"):
            replace_everywhere(fname, lambda fn: self.span("identities.oracle", fn))

    def _dsl(self):
        counts = self.tracer.counts

        def counting(orig_call):
            @functools.wraps(orig_call)
            def eval_call(e, bindings, trunc):
                if e.func == "sum" and len(e.args) == 4:
                    try:
                        lo = dsl.eval_int(e.args[1], bindings)
                        hi = dsl.eval_int(e.args[2], bindings)
                    except qident.QidentError:
                        pass  # the real call raises the same error
                    else:
                        counts["dsl.summands"] += max(0, hi - lo + 1)
                return orig_call(e, bindings, trunc)
            return eval_call

        replace_everywhere("_eval_call", counting)
        replace_everywhere("parse", lambda fn: self.span("dsl.parse", fn))
        replace_everywhere("evaluate", lambda fn: self.span(
            "dsl.eval", fn, hook=self.keep_low))

    def keep_low(self, value):
        self.side_lows.append(_lowest_trusted(value))


def main(argv) -> int:
    tracer = Tracer(_T0)
    tracer.record("cli.import", _T0, _T1)
    inst = Instrument(tracer)
    inst.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = tracer.call("cli.main", cli.main, (argv,), {})
    folded = [[anchor, parent, name, calls, total, own]
              for (anchor, parent, name), (calls, total, own)
              in tracer.folded.items()]
    print(json.dumps({
        "returncode": rc,
        "stdout": out.getvalue(),
        "self_time": tracer.self_time,
        "counts": tracer.counts,
        "spans": tracer.spans,
        "folded": folded,
        "side_lows": inst.side_lows,
        "domains": inst.domains,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
