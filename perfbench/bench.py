"""Timed loop, output checks and metric assembly for one benchmark run."""

import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
from qrobust import fockcheck, moments, smallgain
from qrobust import model as qmodel
from qrobust.errors import NumericError, PreconditionError

import check
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3   # set-up is measured in this process and in 2 fresh ones
TAIL_BEYOND = 10    # the tail percentile leaves this many ops above it
BLOCK_S = 10.0      # latency_p50_ms averages the medians of blocks this long


class Rec(NamedTuple):
    """One timed op: input index, start within the window, wall time, and
    either the output and exception (first run of the input) or the
    fingerprint of the output (a repeat)."""
    i: int
    start: float
    dt: float
    out: object
    err: object
    fp: object


def closed_loop(ops, seconds, seen, tracer=None):
    """Run ops cyclically, one at a time, until `seconds` have elapsed and
    at least one full pass has run.

    Returns a list of Rec and the elapsed time.  Only the first output of
    each input is kept; `seen` holds the inputs already run (shared across
    windows), and a repeat keeps its fingerprint instead, so memory does
    not grow with the op count.
    """
    recs = []
    start = time.perf_counter()
    k = 0
    while True:
        i = k % len(ops)
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            out, err = ops[i].run(), None
        except Exception as exc:  # a raising op is a counted failure
            out, err = None, exc
        t1 = time.perf_counter()
        if i in seen:
            recs.append(Rec(i, t0 - start, t1 - t0, None, None, fingerprint(out, err)))
        else:
            seen.add(i)
            recs.append(Rec(i, t0 - start, t1 - t0, out, err, None))
        k += 1
        if t1 - start >= seconds and k >= len(ops):
            return recs, t1 - start


def fingerprint(out, err):
    """Cheap comparable summary of one output; repeats of an input must match it."""
    if err is not None:
        return (type(err).__name__, str(err))
    if hasattr(out, "verdict"):  # CertificationReport
        return repr((out.verdict, out.hinf, out.ms_bound,
                     None if out.P is None else hash(out.P.P.tobytes())))
    if hasattr(out, "ms_values"):  # MomentTrajectory
        return (hash(out.ms_values.tobytes()), hash(out.X_final.tobytes()))
    if isinstance(out, tuple) and isinstance(out[0], dict):  # cross_validate, ms_value
        gen = out[0]["generic"]
        return repr((gen["verdict"], gen["hinf"], gen["ms_bound"], out[1]))
    if isinstance(out, tuple) and isinstance(out[1], str):  # CLI exit code, stdout
        return (out[0], hash(out[1]))
    return repr(out)


# cross_validate's message when |H|_inf is its only disagreement
HINF_ONLY = re.compile(r"cross-validation failed outside the boundary band: "
                       r"hinf \(closed [^,]+, generic ([^)]+)\)")


def error_kind(op, err):
    """Failure kind of a raised op.

    The kinds known at baseline are given only under the condition that
    produced them there: a cross_validate |H|_inf miss that the program's
    absolute axis tolerance explains on a nearly marginal plant, a
    trajectory PreconditionError where the RK4 recurrence itself turns a
    plant diagonal entry negative or non-real, and an InfeasibleError on
    an n_a = 2 certify (the structured-infeasible gap).
    """
    name = type(err).__name__
    t = op.truth
    if op.kind == "opa" and isinstance(err, NumericError):
        m = HINF_ONLY.fullmatch(str(err))
        if m and check.axis_tolerance_miss(t["F"], t["B"], t["C"], float(m.group(1))):
            return name + "-axis-tolerance"
    if op.kind == "trajectory" and isinstance(err, PreconditionError) \
            and check.rk4_reference(t["A"], t["D"], t["x0"], 1,
                                    workloads.TRAJ_HORIZON)[2] == "not-positive":
        return name + "-as-rk4"
    if op.kind == "certify" and name == "InfeasibleError" and op.label == "n_a=2":
        return name + "-n_a=2"
    return name


def outcome(op, out, err):
    """Independent check of one output: failure kinds, certified, bound ratio."""
    res = {"fails": [], "certified": False, "bound_ratio": None, "traj_err": None}
    if err is not None:
        res["fails"] = [f"{op.kind}:{error_kind(op, err)}"]
        return res
    t = op.truth
    if op.kind == "fock":
        kind = op.label
        if kind == "double_commutator":
            out = (out, smallgain.COMM_FACTOR)
        elif kind == "arbitration":
            out = (out, smallgain.COMM_FACTOR, fockcheck.COMM_FACTOR_TOL)
        fails = check.fock_failures(kind, out)
    elif op.kind == "trajectory":
        fails, res["traj_err"] = check.trajectory_failures(out, t["A"], t["D"], t["x0"], 1,
                                                           workloads.TRAJ_HORIZON)
    else:
        truth = dict(t, ms_value=None)
        if op.kind == "opa":
            rep_out, truth["ms_value"] = out
            gen = rep_out["generic"]
            rep = dict(verdict=gen["verdict"], hinf=gen["hinf"], gamma=gen["gamma"],
                       ms_bound=gen["ms_bound"], P=None)
            abscissa = float(np.linalg.eigvals(t["F"]).real.max())
            if abs(abscissa) <= 1e-7 * float(np.linalg.norm(t["F"], 2)):
                return res  # on the stability boundary either verdict is right
            truth["hinf"] = check.peak_gain(t["F"], t["B"], t["C"]) if abscissa < 0 else None
        elif isinstance(out, tuple):  # CLI: (exit code, stdout)
            code, text = out
            if code == 2:
                res["fails"] = ["certify:exit-2"]
                return res
            d = json.loads(text)
            p = None
            if d["P"] is not None:
                arr = np.array(d["P"]["P"], dtype=float)
                p = arr[..., 0] + 1j * arr[..., 1]
            rep = dict(verdict=d["verdict"], hinf=d["hinf"], gamma=d["gamma"],
                       ms_bound=d["ms_bound"], P=p, exit_code=code)
        else:
            rep = dict(verdict=out.verdict, hinf=out.hinf, gamma=out.gamma,
                       ms_bound=out.ms_bound, P=None if out.P is None else out.P.P)
        if op.kind == "certify" and rep["verdict"] == "certified":
            mdl = qmodel.validate_model(t["M"], t["N_a"],
                                        math.sqrt(workloads.KAPPA_B) * np.eye(2), t["E"])
            try:
                truth["ms_value"] = moments.steady_state_moments(
                    moments.build_closed_loop(mdl, t["g"])).ms_value
            except PreconditionError:
                truth["ms_value"] = math.inf
        fails, res["bound_ratio"] = check.certify_failures(rep, truth)
        res["certified"] = rep["verdict"] == "certified" and not fails
    res["fails"] = [f"{op.kind}:{f}" for f in fails]
    return res


def evaluate(ops, recs, first):
    """Outcome of every record; each input is fully checked once.

    `first` maps op index -> (fingerprint, outcome) and is shared across
    windows; a repeat whose output differs from the first is a failure.
    """
    outcomes = []
    for rec in recs:
        if rec.fp is None:
            first[rec.i] = (fingerprint(rec.out, rec.err), outcome(ops[rec.i], rec.out, rec.err))
            outcomes.append(first[rec.i][1])
            continue
        fp0, oc = first[rec.i]
        if rec.fp != fp0:
            oc = dict(oc, certified=False,
                      fails=oc["fails"] + [f"{ops[rec.i].kind}:nondeterministic-output"])
        outcomes.append(oc)
    return outcomes


def latency_metrics(recs, elapsed):
    """latency_p50_ms is the mean over BLOCK_S blocks of the window (the
    last one absorbs the remainder) of the median op time in each; see
    README.md for why."""
    times = sorted(rec.dt for rec in recs)
    n = len(times)
    j = max(n - TAIL_BEYOND, 1)  # 1-based rank with TAIL_BEYOND ops above it
    n_blocks = max(int(elapsed // BLOCK_S), 1)
    blocks = defaultdict(list)
    for rec in recs:
        blocks[min(int(rec.start // BLOCK_S), n_blocks - 1)].append(rec.dt)
    block_p50 = [statistics.median(b) for b in blocks.values()]
    return {
        "latency_p50_ms": 1000.0 * statistics.fmean(block_p50),
        "latency_tail_ms": 1000.0 * times[j - 1],
        "throughput_ops_s": n / elapsed,
    }, {"ops": n, "tail_percentile": 100.0 * j / n, "tail_ops_beyond": n - j,
        "block_p50_ms": [1000.0 * b for b in block_p50]}


def setup_samples(args, first_sample):
    """Set-up times: this process plus SETUP_SAMPLES - 1 fresh processes."""
    samples = [first_sample]
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
             "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        samples.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def environment(args):
    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "openblas": openblas,
            "machine": platform.machine()}


E2E_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "throughput_ops_s": "ops/s", "peak_rss_mb": "MB"}


def untraced(wl, args, setup_s, first):
    recs, elapsed = closed_loop(wl.ops, args.seconds, set())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = evaluate(wl.ops, recs, first)
    metrics, stats = latency_metrics(recs, elapsed)
    samples = setup_samples(args, setup_s)
    metrics["setup_s"] = statistics.median(samples)
    metrics["peak_rss_mb"] = peak_rss_mb
    stats["setup_samples"] = samples
    return recs, outcomes, metrics, E2E_UNITS, stats, None


def traced(wl, args, first):
    """Untraced window, then one with span wrappers installed; each takes
    half of --seconds (and at least one full pass)."""
    seen = set()
    recs_a, el_a = closed_loop(wl.ops, args.seconds / 2, seen)
    tracer = spans.Tracer()
    tracer.install()
    try:
        recs_b, el_b = closed_loop(wl.ops, args.seconds / 2, seen, tracer)
    finally:
        tracer.uninstall()
    out_a = evaluate(wl.ops, recs_a, first)
    out_b = evaluate(wl.ops, recs_b, first)
    firsts = {}
    for k, rec in enumerate(recs_b):
        firsts.setdefault(rec.i, k)
    overhead = (len(recs_a) / el_a) / (len(recs_b) / el_b) - 1.0
    metrics = spans.layer_metrics(
        tracer.spans, [rec.dt for rec in recs_b], set(firsts.values()),
        [oc["traj_err"] for oc in out_b if oc["traj_err"] is not None], overhead)
    stats = {"ops": len(recs_b), "untraced_ops": len(recs_a), "spans": len(tracer.spans)}
    return recs_a + recs_b, out_a + out_b, metrics, spans.LAYER_UNITS, stats, tracer.spans


def run(args, t_start):
    """Build, warm up, time, check and report one workload; returns the exit code."""
    warnings.simplefilter("ignore")
    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        wl = workloads.build(args.workload, args.seed, tmpdir)
        for i in wl.warmup:
            try:
                wl.ops[i].run()
            except Exception:  # failures are counted in the timed window
                pass
        setup_s = time.perf_counter() - t_start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        first = {}
        if args.trace:
            recs, outcomes, metrics, units, stats, span_dump = traced(wl, args, first)
        else:
            recs, outcomes, metrics, units, stats, span_dump = untraced(wl, args, setup_s, first)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    # ratio metrics over the distinct inputs attempted; each input's
    # outcome is deterministic, so they repeat exactly for a seed
    distinct = [oc for _, oc in first.values()]
    ratios = {"fail_frac": sum(1 for oc in distinct if oc["fails"]) / len(distinct)}
    if wl.ops[0].kind in ("certify", "opa"):
        ratios["certified_frac"] = sum(oc["certified"] for oc in distinct) / len(distinct)
        bound = [oc["bound_ratio"] for oc in distinct if oc["bound_ratio"] is not None]
        ratios["bound_ratio_p50"] = statistics.median(bound) if bound else None

    failures = defaultdict(list)
    for k, (rec, oc) in enumerate(zip(recs, outcomes)):
        for kind in oc["fails"]:
            failures[kind].append({"op": k, "input": rec.i})
    failed = sum(1 for oc in outcomes if oc["fails"])
    correct = set(failures) <= wl.known_failures

    env = environment(args)
    env.update(stats, pass_size=len(wl.ops), distinct_inputs=len(distinct),
               op_counts=dict(Counter(wl.ops[rec.i].label for rec in recs)))
    print(f"# qrobust benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env))
    sample_count = {"setup_s": SETUP_SAMPLES, "peak_rss_mb": 1}
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]} "
              f"(samples {sample_count.get(name, stats['ops'])})")
    for name, value in ratios.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name} = {shown} ratio (inputs {len(distinct)})")
    for kind, where in sorted(failures.items()):
        known = "known at baseline" if kind in wl.known_failures else "NEW"
        ops = ", ".join(str(w["op"]) for w in where[:20])
        print(f"failure {kind}: {len(where)} ops ({known}); op indices {ops}")
    if not failures:
        print("failures: none")

    record = {"env": env, "inputs": wl.inputs, "metrics": metrics, "ratios": ratios,
              "failures": failures, "correct": correct}
    if span_dump is not None:
        record["spans"] = span_dump
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": correct, "attempted": len(recs), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0
