"""Optical parametric amplifier: construction and closed-form oracle.

A two-mode cavity with a chi^(2) medium, linearized about steady
amplitudes abar (fundamental) and bbar (second harmonic), is the
canonical instance of this toolkit's model class: the fundamental mode
is the plant, the second-harmonic mode is the uncertainty, and the
coupling is bilinear with strength g = 2 chi abar.  Every pipeline
quantity then has a closed form in the five physical parameters:

    F eigenvalues   -kappa_a/2 +- chi |bbar|
    Hurwitz         kappa_a > 2 chi |bbar|
    ||H||_inf       2 kappa_a / (kappa_a^2 - 4 chi^2 |bbar|^2)
    ||G||_inf       8 chi^2 |abar|^2 / kappa_b
    gamma           kappa_b / (8 chi^2 |abar|^2)
    delta1          4 chi^2 |abar|^2
    certified       4 chi^2 (8 (kappa_a/kappa_b) |abar|^2 + |bbar|^2) < kappa_a^2

cross_validate runs the generic pipeline and the closed forms side by
side and fails loudly on any disagreement, except inside a narrow band
around the certification boundary where strict float inequalities on
the two routes can legitimately split.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PreconditionError
from .model import validate_model
from .smallgain import certify
from .uncertainty import from_bilinear_coupling, qsiqc_params

__all__ = [
    "OpaParams",
    "build_opa_model",
    "closed_form_quantities",
    "cross_validate",
    "sweep_rows",
    "SWEEP_COLUMNS",
]


@dataclass
class OpaParams:
    chi: float
    kappa_a: float
    kappa_b: float
    abar: complex
    bbar: complex


def _validated(p):
    chi, ka, kb = float(p.chi), float(p.kappa_a), float(p.kappa_b)
    for name, val in (("chi", chi), ("kappa_a", ka), ("kappa_b", kb)):
        if not (val > 0) or not math.isfinite(val):
            raise PreconditionError(f"{name} must be a positive finite rate, got {val!r}")
    abar, bbar = complex(p.abar), complex(p.bbar)
    for name, val in (("abar", abar), ("bbar", bbar)):
        # abs of a complex raises OverflowError where hypot returns inf
        if not math.isfinite(math.hypot(val.real, val.imag)):
            raise PreconditionError(f"{name} must be a finite amplitude, got {val!r}")
    return chi, ka, kb, abar, bbar


def build_opa_model(p):
    """(QuantumModel, coupling g, LinearUncertainty) for the amplifier."""
    chi, ka, kb, abar, bbar = _validated(p)
    m = np.array([[0.0, -1j * chi * bbar], [1j * chi * bbar.conjugate(), 0.0]])
    n_a = math.sqrt(ka) * np.eye(2)
    n_b = math.sqrt(kb) * np.eye(2)
    e_tilde = np.array([[1.0 + 0.0j, 0.0j]])
    model = validate_model(m, n_a, n_b, e_tilde)
    g = 2.0 * chi * abar
    return model, g, from_bilinear_coupling(g, kb)


def closed_form_quantities(p):
    """All pipeline quantities evaluated from the printed closed forms.

    H0_mag is None when the plant is not Hurwitz (the norm does not
    exist); gamma is +inf when abar = 0 (no coupling, no gain
    constraint).
    """
    chi, ka, kb, abar, bbar = _validated(p)
    # a product overflows to inf where a float power would raise OverflowError
    aa = abs(abar) * abs(abar)
    bb = abs(bbar) * abs(bbar)
    hurwitz = ka > 2.0 * chi * abs(bbar)
    g_norm = 8.0 * chi * chi * aa / kb
    lhs = 4.0 * chi * chi * (8.0 * (ka / kb) * aa + bb)
    return {
        "F_eigs": [-0.5 * ka + chi * abs(bbar), -0.5 * ka - chi * abs(bbar)],
        "H0_mag": 2.0 * ka / (ka * ka - 4.0 * chi * chi * bb) if hurwitz else None,
        "G_norm": g_norm,
        "gamma": math.inf if g_norm == 0.0 else 1.0 / g_norm,
        "delta1": 4.0 * chi * chi * aa,
        "delta2": 0.0,
        "hurwitz": hurwitz,
        "lhs": lhs,
        "certified": lhs < ka * ka,
    }


def _check_tol(tol):
    if not 0 < tol < math.inf:
        raise PreconditionError(f"tol must be positive and finite, got {tol!r}")


def _rel_err(x, y):
    if x is None or y is None:
        return math.inf
    if math.isinf(x) or math.isinf(y):
        return 0.0 if x == y else math.inf
    denom = max(abs(x), abs(y))
    if denom == 0.0:
        return 0.0
    err = abs(x - y) / denom
    return 0.0 if abs(x - y) <= 1e-12 else err


def cross_validate(p, tol=1e-6):
    """Run the generic pipeline and the closed forms; compare everything.

    Returns an agreement report (JSON-ready dict).  Quantities must
    match within tol relative; the certified/not verdict must match
    exactly unless |lhs - kappa_a^2| <= tol kappa_a^2 (the certification
    boundary band) and the Hurwitz flag unless kappa_a is within tol of
    2 chi |bbar| (the stability boundary band).  Any disagreement
    outside the bands raises NumericError naming the divergent
    quantities.  Raises PreconditionError unless 0 < tol < inf.
    """
    _check_tol(tol)
    chi, ka, kb, abar, bbar = _validated(p)
    closed = closed_form_quantities(p)
    model, g, unc = build_opa_model(p)
    gamma_u, delta1_u, delta2_u = qsiqc_params(unc)
    report = certify(model, gamma_u, delta1_u, delta2_u)

    certification_band = abs(closed["lhs"] - ka * ka) <= tol * ka * ka
    hurwitz_band = abs(ka - 2.0 * chi * abs(bbar)) <= tol * max(ka, 2.0 * chi * abs(bbar))

    checks = []
    failures = []

    def check(name, closed_val, generic_val):
        err = _rel_err(closed_val, generic_val)
        ok = err <= tol
        checks.append({"quantity": name, "closed_form": closed_val,
                       "generic": generic_val, "rel_err": err, "ok": ok})
        if not ok:
            failures.append(f"{name} (closed {closed_val!r}, generic {generic_val!r})")

    check("gamma", closed["gamma"], report.gamma)
    check("delta1", closed["delta1"], report.delta1)
    g_norm_generic = 0.0 if math.isinf(report.gamma) else 1.0 / report.gamma
    check("G_norm", closed["G_norm"], g_norm_generic)
    if closed["hurwitz"] and report.hurwitz:
        check("hinf", closed["H0_mag"], report.hinf)
        check("spectral_abscissa", closed["F_eigs"][0], report.spectral_abscissa)

    if not hurwitz_band and closed["hurwitz"] != report.hurwitz:
        failures.append(
            f"hurwitz (closed {closed['hurwitz']}, generic {report.hurwitz})")
    generic_certified = report.verdict == "certified"
    verdict_agrees = generic_certified == closed["certified"]
    if not certification_band and not verdict_agrees:
        failures.append(
            f"verdict (closed certified={closed['certified']}, generic {report.verdict})")

    if failures:
        raise NumericError("cross-validation failed outside the boundary band: "
                           + "; ".join(failures))

    return {
        "params": {"chi": chi, "kappa_a": ka, "kappa_b": kb,
                   "abar": abar, "bbar": bbar},
        "closed_form": closed,
        "generic": {
            "verdict": report.verdict,
            "hurwitz": report.hurwitz,
            "spectral_abscissa": report.spectral_abscissa,
            "hinf": report.hinf,
            "gamma": report.gamma,
            "delta1": report.delta1,
            "delta2": report.delta2,
            "ms_bound": report.ms_bound,
        },
        "boundary_band": certification_band,
        "checks": checks,
        "agree": True,
    }


SWEEP_COLUMNS = (
    "index", "chi", "kappa_a", "kappa_b", "abar_re", "abar_im",
    "bbar_re", "bbar_im", "closed_hurwitz", "closed_certified",
    "generic_verdict", "boundary_band", "hinf_rel_err", "gamma_rel_err",
    "delta1_rel_err", "agree",
)


def draw_params(rng):
    """One random parameter tuple, log-uniform magnitudes, uniform phases."""
    def logu(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    def amp(lo, hi):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return logu(lo, hi) * complex(math.cos(phase), math.sin(phase))

    return OpaParams(chi=logu(1e-3, 2.0), kappa_a=logu(0.1, 10.0),
                     kappa_b=logu(0.1, 10.0), abar=amp(0.05, 5.0),
                     bbar=amp(0.05, 5.0))


def sweep_rows(count, seed=0, tol=1e-6):
    """Cross-validate `count` random tuples; returns (rows, all_agree).

    Rows are plain dicts keyed by SWEEP_COLUMNS, already ordered by
    index, ready for CSV emission.  A cross-validation failure does not
    abort the sweep; the row records agree=False.  Raises
    PreconditionError unless 0 < tol < inf and count and seed are
    nonnegative.
    """
    _check_tol(tol)
    if count < 0 or seed < 0:
        raise PreconditionError(
            f"sweep count and seed must be nonnegative, got {count!r} and {seed!r}")
    rng = np.random.default_rng(seed)
    rows = []
    all_agree = True
    for i in range(count):
        p = draw_params(rng)
        err = {"hinf": "", "gamma": "", "delta1": ""}
        try:
            rep = cross_validate(p, tol=tol)
            agree = True
            verdict = rep["generic"]["verdict"]
            band = rep["boundary_band"]
            closed = rep["closed_form"]
            for item in rep["checks"]:
                if item["quantity"] in err:
                    err[item["quantity"]] = item["rel_err"]
        except NumericError:
            agree = False
            all_agree = False
            verdict = "disagreement"
            closed = closed_form_quantities(p)
            band = False
        rows.append({
            "index": i,
            "chi": p.chi, "kappa_a": p.kappa_a, "kappa_b": p.kappa_b,
            "abar_re": p.abar.real, "abar_im": p.abar.imag,
            "bbar_re": p.bbar.real, "bbar_im": p.bbar.imag,
            "closed_hurwitz": closed["hurwitz"],
            "closed_certified": closed["certified"],
            "generic_verdict": verdict,
            "boundary_band": band,
            "hinf_rel_err": err["hinf"],
            "gamma_rel_err": err["gamma"],
            "delta1_rel_err": err["delta1"],
            "agree": agree,
        })
    return rows, all_agree
