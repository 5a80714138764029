"""Seeded workloads: input generators and the ops that run on them.

A workload is a fixed list of ops (one pass) built from the seed; the
timed loop cycles through it.  Each op calls the program only through
module attributes (``smallgain.certify``, ``cli.run`` ...), so the
traced run can rebind those attributes.  The program receives only the
inputs generated here.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from qrobust import cli, fockcheck, moments, opa, smallgain, uncertainty
from qrobust import model as qmodel

import check

KAPPA_B = 2.0           # damping of the one-mode bilinear uncertainty
TWO_CHANNEL_SCREEN = 0.8  # see multimode_draw
OPA_BOUNDARY_BAND = 0.05  # see opa_away_from_boundary
OPA_MIN_DAMPING = 1e-4    # see opa_away_from_boundary
TRAJ_HORIZON = 20.0


@dataclass
class Op:
    kind: str                       # op family, prefixes failure kinds
    label: str                      # size class, e.g. "n_a=4"
    run: Callable[[], object]       # the timed call
    truth: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list
    warmup: list                    # op indices run untimed during set-up
    known_failures: frozenset       # failure kinds recorded at baseline
    inputs: list                    # per-input generator record


# ---------------------------------------------------------------- generators

def structured_hermitian(rng, n):
    """Hermitian [[P1, P2], [P2^#, P1^#]] with uniform(-1, 1) entries."""
    g1 = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    g2 = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    p1, p2 = 0.5 * (g1 + g1.conj().T), 0.5 * (g2 + g2.T)
    return np.block([[p1, p2], [p2.conj(), p1.conj()]])


def multimode_draw(rng, n, ratio, screen):
    """Plant stable by construction plus a one-mode bilinear uncertainty.

    N_a = sqrt(kappa) I with kappa = u 2 |J M|_2, u ~ U[1.1, 2], so F =
    -i J M - kappa/2 I has spectral abscissa <= -0.1 |J M|_2.  The
    coupling g has |g|^2 = 1 / (ratio ||H||_inf), so gamma = kappa_b /
    (2 |g|^2) = ratio ||H||_inf.

    With screen set, draws whose Sigma-conjugate two-channel gain
    (2/gamma) ||[C; E] (sI - F)^{-1} [B, -J E^dagger]||_inf reaches 0.8
    are redrawn: those fall through the certificate ladder to its last
    rung, which takes 15-22 s at n_a = 4 and about 700 s at n_a = 8.
    Returns the draw and the number of redraws.
    """
    redraws = 0
    while True:
        m = structured_hermitian(rng, n)
        j, _ = check.doubled(n)
        u = rng.uniform(1.1, 2.0)
        kappa = u * 2.0 * float(np.linalg.norm(j @ m, 2))
        n_a = math.sqrt(kappa) * np.eye(2 * n)
        e = rng.uniform(-1, 1, (1, 2 * n)) + 1j * rng.uniform(-1, 1, (1, 2 * n))
        f, b, c = check.plant(m, n_a, e)
        if not float(np.linalg.eigvals(f).real.max()) < 0:
            raise RuntimeError("multimode generator produced a non-Hurwitz drift")
        hinf = check.peak_gain(f, b, c)
        gamma = ratio * hinf
        g = np.exp(1j * rng.uniform(0, 2 * math.pi)) / math.sqrt(gamma)
        if screen:
            two = 2.0 * check.peak_gain(f, np.hstack([b, -j @ e.conj().T]),
                                        np.vstack([c, e])) / gamma
            if two >= TWO_CHANNEL_SCREEN:
                redraws += 1
                continue
        return dict(M=m, N_a=n_a, E=e, F=f, B=b, C=c, g=complex(g), gamma=gamma,
                    hinf=hinf, kappa_factor=u), redraws


def opa_draw(rng):
    """Amplifier tuple with the ranges of qrobust.opa.draw_params."""
    def logu(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    def amp(lo, hi):
        return logu(lo, hi) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

    return opa.OpaParams(chi=logu(1e-3, 2.0), kappa_a=logu(0.1, 10.0),
                         kappa_b=logu(0.1, 10.0), abar=complex(amp(0.05, 5.0)),
                         bbar=complex(amp(0.05, 5.0)))


def opa_away_from_boundary(rng):
    """Amplifier draw away from the certification and stability boundaries.

    The closed-form certification condition is lhs < kappa_a^2 with
    lhs = 4 chi^2 (8 (kappa_a/kappa_b) |abar|^2 + |bbar|^2).  Certified
    draws with lhs / kappa_a^2 in (0.95, 1) reach the last ladder rung
    (about 0.2 s against 5 ms); at 0.2% of draws they would set the tail
    by how many of them a seed happens to hold.

    Draws whose plant abscissa chi |bbar| - kappa_a / 2 lies within 1e-4
    of zero are redrawn too: the program's absolute 1e-8 Hamiltonian axis
    tolerance overestimates |H|_inf there by up to (1e-8 / abscissa)^2 / 2,
    and cross_validate raises once that passes 1e-6 (abscissa above about
    -7e-6).  Returns the draw and the number of redraws.
    """
    redraws = 0
    while True:
        p = opa_draw(rng)
        lhs = 4.0 * p.chi ** 2 * (8.0 * (p.kappa_a / p.kappa_b) * abs(p.abar) ** 2
                                  + abs(p.bbar) ** 2)
        abscissa = p.chi * abs(p.bbar) - p.kappa_a / 2.0  # of F = -i J M - kappa_a / 2 I
        if abs(lhs / p.kappa_a ** 2 - 1.0) > OPA_BOUNDARY_BAND \
                and abs(abscissa) >= OPA_MIN_DAMPING:
            return p, redraws
        redraws += 1


def opa_truth(p):
    """F, B, C and gamma of the amplifier, built from its physical parameters."""
    m = np.array([[0.0, -1j * p.chi * p.bbar], [1j * p.chi * np.conj(p.bbar), 0.0]])
    f, b, c = check.plant(m, math.sqrt(p.kappa_a) * np.eye(2), np.array([[1.0 + 0j, 0j]]))
    return dict(F=f, B=b, C=c, gamma=p.kappa_b / (8.0 * p.chi ** 2 * abs(p.abar) ** 2))


def _pairs(x):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(x)]


def write_inputs(d, tmpdir, k):
    """Model and uncertainty JSON files of one multimode draw."""
    n = d["M"].shape[0] // 2
    g = d["g"]
    model_path = os.path.join(tmpdir, f"model-{k}.json")
    unc_path = os.path.join(tmpdir, f"unc-{k}.json")
    with open(model_path, "w", encoding="utf-8") as fh:
        json.dump({"n_a": n, "n_b": 1, "M": _pairs(d["M"]), "N_a": _pairs(d["N_a"]),
                   "N_b": _pairs(math.sqrt(KAPPA_B) * np.eye(2)), "E_tilde": _pairs(d["E"])}, fh)
    with open(unc_path, "w", encoding="utf-8") as fh:
        json.dump({"A_u": _pairs(-0.5 * KAPPA_B), "B_u": _pairs(g),
                   "C_u": _pairs(-1j * np.conj(g)), "NoiseCov": _pairs(KAPPA_B)}, fh)
    return model_path, unc_path


# ---------------------------------------------------------------------- ops

def _cli_certify(model_path, unc_path):
    argv = ["certify", model_path, "--uncertainty", unc_path]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue()
    return run


def _lib_certify(mdl, unc):
    def run():
        gamma, delta1, delta2 = uncertainty.qsiqc_params(unc)
        return smallgain.certify(mdl, gamma, delta1, delta2)
    return run


def _opa_cross_validate(p):
    def run():
        rep = opa.cross_validate(p)
        ms = None
        if rep["generic"]["verdict"] == "certified":
            mdl, g, _ = opa.build_opa_model(p)
            ms = moments.steady_state_moments(moments.build_closed_loop(mdl, g)).ms_value
        return rep, ms
    return run


def _call(fn_name, *args):
    def run():
        return getattr(fockcheck, fn_name)(*args)
    return run


def _integrate(sys_cl):
    def run():
        return moments.integrate_moments(sys_cl, TRAJ_HORIZON)
    return run


def _multimode(seed, tmpdir, sizes, ratio, screen, per_class, cli_path):
    rng = np.random.default_rng(seed)
    ops, inputs = [], []
    for k in range(per_class * len(sizes)):
        n = sizes[k % len(sizes)]
        d, redraws = multimode_draw(rng, n, ratio, screen)
        inputs.append({"n_a": n, "kappa_over_2JM": d["kappa_factor"],
                       "gamma_over_hinf": d["gamma"] / d["hinf"], "redraws": redraws})
        truth = dict(F=d["F"], B=d["B"], C=d["C"], gamma=d["gamma"], hinf=d["hinf"],
                     M=d["M"], N_a=d["N_a"], E=d["E"], g=d["g"], expects_P=True)
        if cli_path:
            run = _cli_certify(*write_inputs(d, tmpdir, k))
        else:
            mdl = qmodel.validate_model(d["M"], d["N_a"], math.sqrt(KAPPA_B) * np.eye(2), d["E"])
            run = _lib_certify(mdl, uncertainty.from_bilinear_coupling(d["g"], KAPPA_B))
        ops.append(Op("certify", f"n_a={n}", run, truth))
    # one untimed op per size class
    warmup = list(range(len(sizes)))
    return ops, warmup, inputs


def build(name, seed, tmpdir):
    if name == "opa-sweep":
        rng = np.random.default_rng(seed)
        ops, inputs = [], []
        for _ in range(3000):
            p, redraws = opa_away_from_boundary(rng)
            ops.append(Op("opa", "n_a=1", _opa_cross_validate(p),
                          dict(opa_truth(p), expects_P=False)))
            inputs.append({"n_a": 1, "redraws": redraws})
        # the draw keeps away from the nearly marginal plants on which
        # cross_validate raises this; it stays known should one get through
        return Workload(ops, list(range(20)), frozenset({"opa:NumericError-axis-tolerance"}),
                        inputs)
    if name == "loose-multimode":
        ops, warmup, inputs = _multimode(seed, tmpdir, (1, 2, 4, 8, 16), 6.0,
                                         True, 20, cli_path=True)
        return Workload(ops, warmup, frozenset(), inputs)
    if name == "tight-lowmode":
        ops, warmup, inputs = _multimode(seed, tmpdir, (1, 1, 2), 2.1,
                                         False, 10, cli_path=False)
        return Workload(ops, warmup[:1] + warmup[2:],
                        frozenset({"certify:InfeasibleError-n_a=2"}), inputs)
    if name == "oracle-suite":
        return _oracle_suite(seed, screen=True)
    if name == "oracle-unscreened":
        return _oracle_suite(seed, screen=False)
    raise ValueError(f"unknown workload {name!r}")


def _fock_ops(seed, dim=20, trials=2):
    """The identity cases of `qrobust fockcheck --dim 20 --trials 2 --seed S`.

    Draws are taken from the generator in the order the CLI takes them.
    """
    rng = np.random.default_rng(seed)
    rh, rc = fockcheck.random_hermitian_structured, fockcheck.random_structured_coupling

    def row():
        return rng.uniform(-1, 1, (1, 2)) + 1j * rng.uniform(-1, 1, (1, 2))

    ops = [Op("fock", "ccr", _call("check_ccr", 1, dim)),
           Op("fock", "ccr", _call("check_ccr", 2, min(dim, 24)))]
    for _ in range(trials):
        p, e = rh(rng), row()
        ops.append(Op("fock", "double_commutator",
                      _call("check_double_commutator", p, e, dim)))
    for _ in range(trials):
        p, m_h, n_a = rh(rng), rh(rng), rc(rng)
        ops.append(Op("fock", "quadratic",
                      _call("check_quadratic_identities", p, m_h, n_a, dim)))
    for _ in range(min(trials, 2)):
        p, e = rh(rng), row()
        for k, l in fockcheck.MONOMIALS:
            for shape in fockcheck.COEFF_SHAPES:
                ops.append(Op("fock", "decomposition", _call(
                    "check_generator_decomposition", k, l, shape, p, e, min(dim, 20))))
    ops.append(Op("fock", "arbitration",
                  _call("arbitrate_comm_factor", 50, min(dim, 30), seed)))
    return ops


def _oracle_suite(seed, screen, loops=50):
    """Fock identity cases and moment trajectories of Hurwitz amplifier loops.

    With screen set, loops on which the fixed-step RK4 that
    integrate_moments documents cannot meet the closed form are redrawn:
    those where check.rk4_meets_closed_form finds the step unstable, an
    event, or a miss above a tenth of the trajectory tolerance.  They are
    the lightly damped, oscillating loops of the known RK4 failures,
    which the unscreened suite keeps.
    """
    fock = _fock_ops(seed)
    rng = np.random.default_rng([seed, 1])
    x0 = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)  # joint vacuum
    traj, redraws = [], [0]
    while len(traj) < loops:
        p = opa_draw(rng)
        mdl, g, _ = opa.build_opa_model(p)
        sys_cl = moments.build_closed_loop(mdl, g)
        if not float(np.linalg.eigvals(sys_cl.A_cl).real.max()) < 0:
            continue
        if screen and not check.rk4_meets_closed_form(sys_cl.A_cl, sys_cl.D, x0, 1,
                                                      TRAJ_HORIZON, 0.1 * check.TRAJ_RTOL):
            redraws[-1] += 1
            continue
        traj.append(Op("trajectory", "trajectory", _integrate(sys_cl),
                       dict(A=sys_cl.A_cl, D=sys_cl.D, x0=x0)))
        redraws.append(0)
    # spread the trajectories evenly through the identity cases
    ops = [op for _, op in sorted(
        [((k + 0.5) / len(fock), op) for k, op in enumerate(fock)]
        + [((k + 0.5) / len(traj), op) for k, op in enumerate(traj)],
        key=lambda item: item[0])]
    kinds = ("ccr", "double_commutator", "quadratic", "decomposition", "arbitration")
    warmup = [next(i for i, op in enumerate(ops) if op.label == kind) for kind in kinds]
    # the loop with the fewest RK4 steps (least damped), as the first loop
    # of a seed may take 0.01-0.3 s and set-up would vary with the seed
    warmup.append(min((i for i, op in enumerate(ops) if op.kind == "trajectory"),
                      key=lambda i: -float(np.linalg.eigvals(ops[i].truth["A"]).real.max())))
    inputs = [{"kind": op.label} for op in ops]
    for rec, n in zip((r for r, op in zip(inputs, ops) if op.kind == "trajectory"), redraws):
        rec["redraws"] = n
    known = frozenset() if screen else frozenset({
        "trajectory:PreconditionError-as-rk4",
        "trajectory:trajectory-closed-form-mismatch-as-rk4",
        "trajectory:trajectory-diverged-as-rk4"})
    return Workload(ops, warmup, known, inputs)

