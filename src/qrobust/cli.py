"""Command-line front end.

Subcommands:

    certify      model file -> stability certification report
    freqresp     model file -> CSV frequency response of the plant
    uncertainty  uncertainty file -> sector parameters as JSON
    moments      model file + coupling -> mean square value vs bound
    opa          amplifier parameters -> closed forms vs generic pipeline
    fockcheck    truncated-operator identity suite -> pass/fail table

Exit codes: 0 when the analysis ran and the answer is positive
(certified, bound satisfied, all identities pass, cross-validation
agrees), 1 when the analysis ran with a negative verdict, 2 when the
input could not be parsed or a numeric routine failed.

Output is byte-deterministic for fixed inputs, flags, and seed: floats
are serialized with 17 significant digits, dict key order is fixed, and
sweeps are emitted sorted by index.  Diagnostics and warnings go to
stderr only.
"""

import argparse
import functools
import math
import sys
import warnings

import numpy as np

from ._json import dumps, format_float, format_matrix
from ._linalg import transfer_scalar
from .errors import PreconditionError, ToolkitError
from .fockcheck import run_suite
from .model import model_from_json
from .moments import build_closed_loop, integrate_moments, \
    scalar_damping_rate, steady_state_moments
from .opa import SWEEP_COLUMNS, OpaParams, cross_validate, sweep_rows
from .smallgain import certify, compute_F
from .uncertainty import from_bilinear_coupling, qsiqc_params, \
    uncertainty_from_json

__all__ = ["main", "run", "report_dict"]


def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def parse_complex(text):
    """Parse 'RE,IM' (or a bare 'RE') into a complex number."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise PreconditionError(f"expected RE or RE,IM for a complex value, got {text!r}")


def _certificate_dict(cert):
    return {
        "route": cert.route,
        "eps": cert.eps,
        "are_residual": cert.are_residual,
        "structure_residual": cert.structure_residual,
        "min_eig": cert.min_eig,
        "qmi_max_eig": cert.qmi_max_eig,
        "P": cert.P,
    }


def report_dict(rep):
    """Every certification-report field, ready for `dumps`, fixed key order."""
    return {
        "verdict": rep.verdict,
        "hurwitz": rep.hurwitz,
        "spectral_abscissa": rep.spectral_abscissa,
        "hinf": rep.hinf,
        "gamma": rep.gamma,
        "margin": rep.margin,
        "delta1": rep.delta1,
        "delta2": rep.delta2,
        "comm_constant": rep.comm_constant,
        "noise_trace": rep.noise_trace,
        "qmi_slack": rep.qmi_slack,
        "ms_bound": rep.ms_bound,
        "P": _certificate_dict(rep.P) if rep.P is not None else None,
    }


def _fmt_scalar(v):
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, complex):
        return f"[{format_float(v.real)}, {format_float(v.imag)}]"
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def _text_report(d):
    lines = []
    for key, val in d.items():
        if key == "P":
            continue
        lines.append(f"{key}: {_fmt_scalar(val)}")
    cert = d["P"]
    if cert is None:
        lines.append("certificate: none")
    else:
        for key in ("route", "eps", "are_residual", "structure_residual",
                    "min_eig", "qmi_max_eig"):
            lines.append(f"certificate_{key}: {_fmt_scalar(cert[key])}")
        lines.append("certificate_P:")
        lines.append(format_matrix(cert["P"], "[%s, %s]", ", ", "  ", "", "\n"))
    return "\n".join(lines) + "\n"


def _cmd_certify(args):
    model = model_from_json(_read_text(args.model))
    gamma, delta1, delta2 = math.inf, 0.0, 0.0
    if args.uncertainty is not None:
        gamma, delta1, delta2 = qsiqc_params(
            uncertainty_from_json(_read_text(args.uncertainty)))
    if args.gamma is not None:
        gamma = args.gamma
    if args.delta1 is not None:
        delta1 = args.delta1
    if args.delta2 is not None:
        delta2 = args.delta2
    rep = certify(model, gamma, delta1, delta2)
    d = report_dict(rep)
    if args.format == "text":
        sys.stdout.write(_text_report(d))
    else:
        sys.stdout.write(dumps(d) + "\n")
    return 0 if rep.verdict == "certified" else 1


def _cmd_freqresp(args):
    model = model_from_json(_read_text(args.model))
    plant = compute_F(model)
    scale = float(np.linalg.norm(plant.F, 2))
    if scale == 0.0:
        scale = 1.0
    if args.points < 2:
        raise PreconditionError(f"need at least 2 grid points, got {args.points}")
    if not (0 < args.omega_lo < math.inf and 0 < args.omega_hi < math.inf):
        raise PreconditionError("grid bounds must be finite and positive, "
                                f"got {args.omega_lo!r} and {args.omega_hi!r}")
    omegas = np.geomspace(args.omega_lo * scale, args.omega_hi * scale,
                          args.points)
    values = transfer_scalar(plant.F, plant.B, plant.C, omegas)
    lines = ["omega,re,im,magnitude"]
    for w, h in zip(omegas, values):
        lines.append(",".join(format_float(x)
                              for x in (float(w), h.real, h.imag, abs(h))))
    text = "\n".join(lines) + "\n"
    if args.output is not None:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_uncertainty(args):
    gamma, delta1, delta2 = qsiqc_params(
        uncertainty_from_json(_read_text(args.uncertainty)))
    sys.stdout.write(dumps({"gamma": gamma, "delta1": delta1,
                            "delta2": delta2}) + "\n")
    return 0


def _cmd_moments(args):
    model = model_from_json(_read_text(args.model))
    g = parse_complex(args.coupling)
    kappa_b = scalar_damping_rate(model.N_b)
    gamma, delta1, delta2 = qsiqc_params(from_bilinear_coupling(g, kappa_b))
    rep = certify(model, gamma, delta1, delta2)
    c_bound = rep.ms_bound if rep.verdict == "certified" else None
    sys_cl = build_closed_loop(model, g)
    try:
        ms_value = steady_state_moments(sys_cl).ms_value
    except PreconditionError:
        # diverging second moments: report +inf rather than aborting
        ms_value = math.inf
    satisfied = c_bound is not None and ms_value <= c_bound
    # integrated before stdout is written, so that a bad --t-final or --dt
    # leaves no report behind its exit code 2
    traj = None if args.csv is None else integrate_moments(sys_cl, args.t_final, dt=args.dt)
    sys.stdout.write(dumps({"ms_value": ms_value, "c_bound": c_bound,
                            "satisfied": satisfied}) + "\n")
    if traj is not None:
        lines = ["t,ms_value"]
        for t, v in zip(traj.t, traj.ms_values):
            lines.append(f"{format_float(float(t))},{format_float(float(v))}")
        _write_text(args.csv, "\n".join(lines) + "\n")
    return 0 if satisfied else 1


def _sweep_csv(rows):
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return format_float(v)
        return str(v)

    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(cell(row[col]) for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def _cmd_opa(args):
    params = OpaParams(chi=args.chi, kappa_a=args.kappa_a,
                       kappa_b=args.kappa_b,
                       abar=parse_complex(args.abar),
                       bbar=parse_complex(args.bbar))
    report = cross_validate(params, tol=args.tol)
    all_agree = True
    if args.sweep:
        rows, all_agree = sweep_rows(args.sweep, seed=args.seed, tol=args.tol)
        report["sweep"] = {
            "count": args.sweep,
            "seed": args.seed,
            "disagreements": sum(1 for r in rows if not r["agree"]),
            "all_agree": all_agree,
        }
    sys.stdout.write(dumps(report) + "\n")
    if args.sweep:
        text = _sweep_csv(rows)
        if args.csv is not None:
            _write_text(args.csv, text)
        else:
            sys.stdout.write("\n" + text)
        if not all_agree:
            return 2
    return 0 if report["generic"]["verdict"] == "certified" else 1


def _cmd_fockcheck(args):
    rows = run_suite(args.dim, args.trials, args.seed)
    lines = [f"{'identity':<28} {'trials':>6} {'worst_residual':>24} "
             f"{'tolerance':>9} {'status':>6}"]
    for name, count, worst_res, tol, ok in rows:
        lines.append(f"{name:<28} {count:>6} {format_float(worst_res):>24} "
                     f"{tol:>9.0e} {'pass' if ok else 'fail':>6}")
    passed = sum(1 for row in rows if row[4])
    lines.append(f"{passed}/{len(rows)} identities pass")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if passed == len(rows) else 1


@functools.cache  # depends on no input; parse_args leaves the parser unchanged
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qrobust",
        description="Robust mean-square stability certification for "
                    "uncertain linear quantum systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify a model file")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--uncertainty", help="uncertainty JSON file; supplies "
                   "gamma, delta1, delta2")
    p.add_argument("--gamma", type=float, help="sector gain bound override")
    p.add_argument("--delta1", type=float, help="sector offset override")
    p.add_argument("--delta2", type=float, help="sector offset override")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("freqresp", help="plant frequency response as CSV")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--omega-lo", type=float, default=1e-3,
                   help="lower grid bound as a multiple of the plant norm")
    p.add_argument("--omega-hi", type=float, default=1e3,
                   help="upper grid bound as a multiple of the plant norm")
    p.add_argument("--output", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_freqresp)

    p = sub.add_parser("uncertainty", help="sector parameters of an "
                       "uncertainty file")
    p.add_argument("uncertainty", help="uncertainty JSON file")
    p.set_defaults(func=_cmd_uncertainty)

    p = sub.add_parser("moments", help="closed-loop mean square value vs "
                       "certified bound")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--coupling", required=True,
                   help="bilinear coupling strength g as RE,IM")
    p.add_argument("--csv", help="write a t,ms_value time series here")
    p.add_argument("--t-final", type=float, default=20.0)
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("opa", help="closed-form amplifier oracle vs the "
                       "generic pipeline")
    p.add_argument("--chi", type=float, required=True)
    p.add_argument("--kappa-a", type=float, required=True)
    p.add_argument("--kappa-b", type=float, required=True)
    p.add_argument("--abar", required=True, help="steady amplitude RE,IM")
    p.add_argument("--bbar", required=True, help="steady amplitude RE,IM")
    p.add_argument("--sweep", type=int, default=0,
                   help="also cross-validate this many random tuples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--csv", help="sweep CSV path (default stdout)")
    p.set_defaults(func=_cmd_opa)

    p = sub.add_parser("fockcheck", help="truncated-operator identity suite")
    p.add_argument("--dim", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=_cmd_fockcheck)

    return parser


def _note_to_stderr(message, *args, **kwargs):
    sys.stderr.write(f"note: {message}\n")


def run(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # computation warnings become one concise stderr note per source,
        # keeping stdout reports clean and byte-reproducible
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = _note_to_stderr
            return args.func(args)
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main():
    return run()


if __name__ == "__main__":
    sys.exit(main())
