"""Compare `certify` between two checkouts, draw by draw.

    python3 tools/compare_certify.py --parent ../parent --change .

One subprocess per side certifies, with its own `src/`, `tests/` and
`perfbench/`: criterion 5 (seed 11); 1 000 `draw_params` tuples at seeds
17, 42, 2026; opa-sweep's 3 000 and loose-multimode's 100 draws at seeds
1-10; `tight_margin_draw` seeds 5, 9 at n_a = 1, 2, 4, 8 (10 each).  Per
set it prints the draws whose inputs differ, the verdict changes (errors
by type), the route moves, per route kept (with its shift) the draws
whose P or ms_bound bytes differ and the largest relative differences,
and the moved draws' new/old ms_bound ratios.
"""

import argparse
import hashlib
import math
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np


def _draws():
    """(set, model, gamma, delta1, delta2) for every draw, in order."""
    from qrobust.model import validate_model
    from qrobust.opa import build_opa_model, draw_params
    from qrobust.smallgain import hinf_norm
    from qrobust.uncertainty import from_bilinear_coupling, qsiqc_params
    from test_acceptance import draw_stable_plant
    from test_smallgain import tight_margin_draw
    import workloads

    rng = np.random.default_rng(11)
    for k in range(100):
        model, plant, _ = draw_stable_plant(rng)
        yield "criterion-5", model, math.inf if k % 2 == 0 else 3.0 * hinf_norm(plant), 0.3, 0.1
    opa_sets = [("opa-draw-params", s, 1000, draw_params) for s in (17, 42, 2026)]
    opa_sets += [("opa-away", s, 3000, lambda r: workloads.opa_away_from_boundary(r)[0])
                 for s in range(1, 11)]
    for name, seed, count, draw in opa_sets:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            model, _, unc = build_opa_model(draw(rng))
            yield (name, model, *qsiqc_params(unc))
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)
        for k in range(100):
            d, _ = workloads.multimode_draw(rng, (1, 2, 4, 8, 16)[k % 5], 6.0, True)
            model = validate_model(d["M"], d["N_a"], math.sqrt(workloads.KAPPA_B) * np.eye(2),
                                   d["E"])
            unc = from_bilinear_coupling(d["g"], workloads.KAPPA_B)
            yield ("loose-multimode", model, *qsiqc_params(unc))
    for seed in (5, 9):
        for n in (1, 2, 4, 8):
            for index in range(10):
                yield ("tight", *tight_margin_draw(seed, n, index), 0.0, 0.0)


def _digest(*arrays):
    return hashlib.sha1(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def worker():
    """Certify every draw; pickle one record per draw to stdout."""
    from qrobust.errors import ToolkitError
    from qrobust.smallgain import certify

    out = []
    for name, model, gamma, d1, d2 in _draws():
        rec = {"set": name, "input": _digest(model.M, model.N_a, model.E_tilde,
                                             np.array([gamma, d1, d2]))}
        try:
            rep = certify(model, gamma, d1, d2)
            rec["verdict"] = rep.verdict
            if rep.P is not None:
                rec.update(route=rep.P.route, eps=rep.P.eps, P=rep.P.P, ms_bound=rep.ms_bound)
        except ToolkitError as exc:
            rec["verdict"] = type(exc).__name__
        out.append(rec)
    pickle.dump(out, sys.stdout.buffer)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    args = ap.parse_args(argv)
    procs = []
    for checkout in (args.parent, args.change):
        paths = [str((checkout / d).resolve()) for d in ("src", "tests", "perfbench")]
        paths.append(str(Path(__file__).resolve().parent))
        code = f"import sys; sys.path[:0] = {paths!r}; import compare_certify as c; c.worker()"
        procs.append(subprocess.Popen([sys.executable, "-c", code], cwd=checkout,
                                      stdout=subprocess.PIPE))
    outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        sys.exit("a side's worker failed")
    old, new = (pickle.loads(out) for out in outs)
    if len(old) != len(new):
        sys.exit("the two sides certified different numbers of draws")
    for name in dict.fromkeys(r["set"] for r in old):
        pairs = [(a, b) for a, b in zip(old, new) if a["set"] == name]
        changed = Counter((a["verdict"], b["verdict"]) for a, b in pairs
                          if a["verdict"] != b["verdict"])
        both = [(a, b) for a, b in pairs if "P" in a and "P" in b]
        kept = [(a, b) for a, b in both if (a["route"], a["eps"]) == (b["route"], b["eps"])]
        moved = [(a, b) for a, b in both if (a["route"], a["eps"]) != (b["route"], b["eps"])]
        ratios = sorted(b["ms_bound"] / a["ms_bound"] for a, b in moved)
        print(f"{name}: {len(pairs)} draws, "
              f"{sum(a['input'] != b['input'] for a, b in pairs)} with different inputs, "
              f"{sum(changed.values())} verdict changes {dict(changed)}")
        print(f"  {len(moved)} moved {dict(Counter((a['route'], b['route']) for a, b in moved))}")
        for route in sorted({a["route"] for a, _ in kept}):
            same = [(a, b) for a, b in kept if a["route"] == route]
            dp = max(float(np.abs(b["P"] - a["P"]).max() / np.abs(a["P"]).max())
                     for a, b in same)
            db = max(abs(b["ms_bound"] - a["ms_bound"]) / a["ms_bound"] for a, b in same)
            print(f"  {len(same)} kept {route} and shift: P differs on "
                  f"{sum(a['P'].tobytes() != b['P'].tobytes() for a, b in same)} "
                  f"(largest relative {dp:.2g}), ms_bound on "
                  f"{sum(a['ms_bound'] != b['ms_bound'] for a, b in same)} "
                  f"(largest relative {db:.2g})")
        if ratios:
            print(f"  moved new/old ms_bound: median {ratios[len(ratios) // 2]:.3g}, "
                  f"range {ratios[0]:.3g}-{ratios[-1]:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
