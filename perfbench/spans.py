"""Outside-in span recorder and the per-layer metrics computed from it.

Spans are recorded by rebinding module attributes of the program to
wrappers, so only calls that go through those attributes are seen.
Functions are rebound in every module that imported them by name
(``qrobust.cli.certify`` and ``qrobust.opa.certify`` are separate
bindings of ``smallgain.certify``).  Spans stay in memory until the run
ends.
"""

import functools
import importlib
import statistics
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name)
TARGETS = (
    ("qrobust.cli", "run", "cli.run"),
    ("qrobust.cli", "model_from_json", "model.parse"),
    ("qrobust.cli", "uncertainty_from_json", "uncertainty.parse"),
    ("qrobust.cli", "qsiqc_params", "uncertainty.qsiqc"),
    ("qrobust.cli", "certify", "smallgain.certify"),
    ("qrobust.opa", "cross_validate", "opa.cross_validate"),
    ("qrobust.opa", "qsiqc_params", "uncertainty.qsiqc"),
    ("qrobust.opa", "certify", "smallgain.certify"),
    ("qrobust.uncertainty", "qsiqc_params", "uncertainty.qsiqc"),
    ("qrobust.uncertainty", "hinf_bisect", "linalg.hinf_bisect"),
    ("qrobust.uncertainty", "lyap", "linalg.lyap"),
    ("qrobust.smallgain", "certify", "smallgain.certify"),
    ("qrobust.smallgain", "compute_F", "smallgain.drift"),
    ("qrobust.smallgain", "is_hurwitz", "smallgain.hurwitz"),
    ("qrobust.smallgain", "hinf_norm", "smallgain.hinf"),
    ("qrobust.smallgain", "hinf_bisect", "linalg.hinf_bisect"),
    ("qrobust.smallgain", "solve_qmi", "smallgain.solve_qmi"),
    ("qrobust.smallgain", "riccati_stabilizing", "linalg.riccati"),
    ("qrobust.smallgain", "lyap", "linalg.lyap"),
    ("qrobust.smallgain", "comm_constant", "smallgain.bound"),
    ("qrobust.smallgain", "noise_trace", "smallgain.bound"),
    ("qrobust.smallgain", "qmi_slack", "smallgain.bound"),
    ("qrobust.smallgain", "ms_bound", "smallgain.bound"),
    ("qrobust.moments", "steady_state_moments", "moments.steady"),
    ("qrobust.moments", "integrate_moments", "moments.integrate"),
    ("qrobust.moments", "lyap", "linalg.lyap"),
    ("qrobust.fockcheck", "check_ccr", "fockcheck.ccr"),
    ("qrobust.fockcheck", "check_double_commutator", "fockcheck.double_commutator"),
    ("qrobust.fockcheck", "check_quadratic_identities", "fockcheck.quadratic"),
    ("qrobust.fockcheck", "check_generator_decomposition", "fockcheck.decomposition"),
    ("qrobust.fockcheck", "arbitrate_comm_factor", "fockcheck.arbitration"),
)


def _certify_extra(rep):
    return rep.P.route if rep.P is not None else rep.verdict


# what a span keeps of its call's return value
EXTRA = {
    "smallgain.certify": _certify_extra,
    "moments.integrate": lambda traj: len(traj.t) - 1,
}

ROUTES = ("shifted-are", "two-channel-are", "scaled-lyapunov", "eig-opt")
VERDICTS = ("not-hurwitz", "gain-violated")
FOCK_KINDS = ("ccr", "double_commutator", "quadratic", "decomposition", "arbitration")

# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "linalg.hinf_bisect_ms_p50": "ms",
    "linalg.hinf_bisect_calls_per_op": "calls/op",
    "linalg.hinf_bisect_share": "ratio",
    "smallgain.hinf_ms_p50": "ms",
    "uncertainty.qsiqc_ms_p50": "ms",
    "smallgain.search_ms_p50": "ms",
    "smallgain.search_share": "ratio",
    "smallgain.solve_qmi_calls_per_op": "calls/op",
    "smallgain.solve_qmi_ok_frac": "ratio",
    "linalg.riccati_calls_per_op": "calls/op",
    "linalg.riccati_ms_p50": "ms",
    "linalg.riccati_fail_frac": "ratio",
    **{f"smallgain.route.{r}": "count" for r in ROUTES},
    **{f"smallgain.verdict.{v}": "count" for v in VERDICTS},
    "smallgain.error.InfeasibleError": "count",
    "smallgain.drift_ms_p50": "ms",
    "smallgain.hurwitz_ms_p50": "ms",
    "smallgain.bound_ms_p50": "ms",
    "smallgain.certify_ms_p50": "ms",
    "cli.self_ms_p50": "ms",
    "model.parse_ms_p50": "ms",
    "opa.self_ms_p50": "ms",
    "moments.steady_ms_p50": "ms",
    "moments.integrate_ms_p50": "ms",
    "moments.integrate_steps_p50": "steps",
    "moments.traj_rel_err_max": "ratio",
    **{f"fockcheck.{k}_s": "s" for k in FOCK_KINDS},
    "fockcheck.decomposition_ms_p50": "ms",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans [name, start, end, parent, op, error, extra]."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, extra = self.spans, self._stack, EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                span[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if extra is not None:
                span[6] = extra(out)
            return out
        return traced

    def install(self):
        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def _ms_p50(values):
    return 1000.0 * statistics.median(values) if values else 0.0


def layer_metrics(spans, op_seconds, first_ops, traj_errors, overhead):
    """Per-layer metrics of one traced window.

    op_seconds: wall time of each traced op; first_ops: op ids that are
    the first attempt of their input in the window (the counts are per
    distinct input); traj_errors: closed-form errors of the trajectories.
    """
    n_ops = max(len(op_seconds), 1)
    total = max(sum(op_seconds), 1e-300)
    dur = [s[2] - s[1] for s in spans]
    by_name = defaultdict(list)
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        if s[3] >= 0:
            kids[s[3]].append(i)

    def durs(name, parent=None):
        return [dur[i] for i in by_name[name]
                if parent is None or (spans[i][3] >= 0 and spans[spans[i][3]][0] == parent)]

    def self_time(i, names=None):
        return dur[i] - sum(dur[k] for k in kids[i] if names is None or spans[k][0] in names)

    def fails(name):
        calls = by_name[name]
        return sum(1 for i in calls if spans[i][5] is not None), len(calls)

    m = {}
    hb = durs("linalg.hinf_bisect")
    m["linalg.hinf_bisect_ms_p50"] = _ms_p50(hb)
    m["linalg.hinf_bisect_calls_per_op"] = len(hb) / n_ops
    m["linalg.hinf_bisect_share"] = sum(hb) / total
    m["smallgain.hinf_ms_p50"] = _ms_p50(durs("smallgain.hinf"))
    m["uncertainty.qsiqc_ms_p50"] = _ms_p50(durs("uncertainty.qsiqc"))

    fixed = {"smallgain.drift", "smallgain.hurwitz", "smallgain.hinf", "smallgain.bound"}
    certify = by_name["smallgain.certify"]
    searched = [i for i in certify
                if any(spans[k][0] == "smallgain.solve_qmi" for k in kids[i])]
    search = [self_time(i, fixed) for i in searched]
    m["smallgain.search_ms_p50"] = _ms_p50(search)
    m["smallgain.search_share"] = sum(search) / max(sum(dur[i] for i in certify), 1e-300)
    bad, calls = fails("smallgain.solve_qmi")
    m["smallgain.solve_qmi_calls_per_op"] = calls / n_ops
    m["smallgain.solve_qmi_ok_frac"] = (calls - bad) / calls if calls else 0.0
    bad, calls = fails("linalg.riccati")
    m["linalg.riccati_calls_per_op"] = calls / n_ops
    m["linalg.riccati_ms_p50"] = _ms_p50(durs("linalg.riccati"))
    m["linalg.riccati_fail_frac"] = bad / calls if calls else 0.0

    outcomes = [spans[i][5] or spans[i][6] for i in certify if spans[i][4] in first_ops]
    for r in ROUTES:
        m[f"smallgain.route.{r}"] = outcomes.count(r)
    for v in VERDICTS:
        m[f"smallgain.verdict.{v}"] = outcomes.count(v)
    m["smallgain.error.InfeasibleError"] = outcomes.count("InfeasibleError")

    m["smallgain.drift_ms_p50"] = _ms_p50(durs("smallgain.drift", "smallgain.certify"))
    m["smallgain.hurwitz_ms_p50"] = _ms_p50(durs("smallgain.hurwitz", "smallgain.certify"))
    bounds = [sum(dur[k] for k in kids[i] if spans[k][0] == "smallgain.bound")
              for i in certify if spans[i][6] in ROUTES]
    m["smallgain.bound_ms_p50"] = _ms_p50(bounds)
    m["smallgain.certify_ms_p50"] = _ms_p50([dur[i] for i in certify])
    m["cli.self_ms_p50"] = _ms_p50([self_time(i) for i in by_name["cli.run"]])
    m["model.parse_ms_p50"] = _ms_p50(durs("model.parse"))
    m["opa.self_ms_p50"] = _ms_p50([self_time(i) for i in by_name["opa.cross_validate"]])
    m["moments.steady_ms_p50"] = _ms_p50(durs("moments.steady"))
    integ = by_name["moments.integrate"]
    m["moments.integrate_ms_p50"] = _ms_p50([dur[i] for i in integ])
    steps = [spans[i][6] for i in integ if spans[i][6] is not None]
    m["moments.integrate_steps_p50"] = float(statistics.median(steps)) if steps else 0.0
    m["moments.traj_rel_err_max"] = max(traj_errors, default=0.0)
    for kind in FOCK_KINDS:
        m[f"fockcheck.{kind}_s"] = sum(
            (dur[i] for i in by_name[f"fockcheck.{kind}"] if spans[i][3] < 0), 0.0)
    m["fockcheck.decomposition_ms_p50"] = _ms_p50(
        [dur[i] for i in by_name["fockcheck.decomposition"] if spans[i][3] < 0])
    m["trace.overhead_frac"] = overhead
    return m
