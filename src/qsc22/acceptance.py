"""Acceptance batteries: the ten checks behind `qsc22 suite` and the tests.

Each battery takes (rng_seed, tol) and returns (ok, detail), where the
detail is a JSON-ready dict of margins and counts.  A tol of None means
the battery's own default; batteries that check exact identities ignore
it.  `BATTERIES` lists them in suite order.  The command line checks
`check-qq`, `character --random`, `check-f` and `pmu-check` run the same
code with their own parameters.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import random
from typing import Sequence, Tuple

import numpy as np

from . import ads3, ed_oracle
from . import analytic_layer as al
from . import hubbard_bethe as hb
from . import qsystem, ty_system
from ._newton import NoConvergence, PathCollision
from .exact_poly import GaussRat


# --------------------------------------------------------------------------
# Exact layer


def _draw_seed_ints(rng_seed: int, count: int, degree: int) -> list:
    """Seed integers whose generated odd seeds stay within the degree cap."""
    rng = random.Random(rng_seed)
    out = []
    while len(out) < count:
        candidate = rng.randrange(2 ** 31)
        _, bs = qsystem.random_seed_polys(candidate)
        if max(p.degree() for p in bs) <= degree:
            out.append(candidate)
    return out


def _battery_qq(rng_seed: int, tol) -> Tuple[bool, dict]:
    seeds = _draw_seed_ints(rng_seed, 20, 3)
    reports = [(s, qsystem.check_qq(qsystem.generate_from_seed(
        *qsystem.random_seed_polys(s), audit=False))) for s in seeds]
    bad = [s for s, rep in reports if not rep.ok or rep.checked != 49]
    return not bad, {"systems": len(seeds), "failed_seeds": bad,
                     "checked": sum(rep.checked for _, rep in reports)}


def _battery_hodge(rng_seed: int, tol) -> Tuple[bool, dict]:
    failures = []
    for s in _draw_seed_ints(rng_seed + 1, 3, 3):
        q = qsystem.random_qsystem(s)
        dd = qsystem.hodge(qsystem.hodge(q))
        for slot in q:
            na, ni = qsystem.slot_grades(slot)
            signed = q[slot] if (na + ni) % 2 == 0 else -q[slot]
            if dd[slot] != signed:
                failures.append((s, slot))
    return not failures, {"systems": 3, "failures": failures}


def _battery_hirota(rng_seed: int, tol) -> Tuple[bool, dict]:
    # The same 20 systems as the qq battery, which checks their QQ
    # relations; this one checks Hirota and the Y identity on them.
    seeds = _draw_seed_ints(rng_seed, 20, 3)
    bad = []
    y_bad = []
    for s in seeds:
        q = qsystem.generate_from_seed(*qsystem.random_seed_polys(s),
                                       audit=False)
        if not ty_system.check_hirota(q).ok:
            bad.append(s)
        num, den = ty_system.y_pair(q, 1, 1)
        num2, den2 = ty_system.y_pair(q, 2, 2)
        lhs = num * num2 * q["12|12"].shift(-1)
        rhs = den * den2 * q["12|12"].shift(1)
        if lhs != rhs:
            y_bad.append(s)
    return not bad and not y_bad, {
        "systems": len(seeds), "hirota_failed": bad, "y_identity_failed": y_bad,
    }


def _random_half_twist(rng: random.Random) -> GaussRat:
    while True:
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        if a != b:
            z = GaussRat(a, b)
            return z / z.conjugate()


def _character_report(sx: GaussRat, sy: GaussRat) -> dict:
    q = ty_system.character_solution(sx, sy)
    qq_ok = qsystem.check_qq(q).ok
    hirota_ok = ty_system.check_hirota(q).ok
    th = ty_system.wronskian_T(q)
    th_dual = ty_system.wronskian_T(qsystem.hodge(q))
    hodge_ok = all(th.values[cell] == th_dual.values[cell] for cell in th.values)
    shift_ok = all(p.shift(2) == p for p in th.values.values())
    return {
        "sx": str(sx),
        "sy": str(sy),
        "qq": qq_ok,
        "hirota": hirota_ok,
        "hodge_trivial": hodge_ok,
        "shift_invariant": shift_ok,
        "ok": qq_ok and hirota_ok and hodge_ok and shift_ok,
    }


def character_runs(rng_seed: int, count: int) -> list:
    """Reports for the first `count` non-degenerate random twist pairs."""
    rng = random.Random(rng_seed)
    runs = []
    while len(runs) < count:
        pair = (_random_half_twist(rng), _random_half_twist(rng))
        try:
            runs.append(_character_report(*pair))
        except ty_system.DegenerateTwist:
            continue
    return runs


def _battery_character(rng_seed: int, tol) -> Tuple[bool, dict]:
    runs = character_runs(rng_seed, 10)
    ok = all(r["ok"] for r in runs)
    return ok, {"twists": len(runs), "failed": [r for r in runs if not r["ok"]]}


# --------------------------------------------------------------------------
# Lieb-Wu against the oracle


def _liebwu_grid_cases():
    for lsites in (2, 3, 4):
        for coupling in (0.5, 1.0, 2.0):
            for n_charge in range(0, lsites + 1):
                for m_spin in range(0, n_charge // 2 + 1):
                    yield lsites, coupling, n_charge, m_spin


def _admissible_modes(lsites: int, n_charge: int, m_spin: int):
    """Mode sets whose counting equations bracket a root.

    Sending a spin root to -inf or +inf pins its counting function at
    2 pi (M - 1 - N - J) and -2 pi J, so a root exists only for J
    strictly inside (M - 1 - N, 0); the charge modes are free modulo L.
    """
    return itertools.product(
        itertools.combinations(range(lsites), n_charge),
        itertools.combinations(range(m_spin - n_charge, 0), m_spin),
    )


def match_energies(energies, eigs, tol: float) -> ed_oracle.MatchReport:
    """`ed_oracle.match_spectrum` for energies that may be non-real.

    The real parts are matched; a non-real energy keeps its imaginary
    part in its gap, so it fails the match instead of raising.
    """
    report = ed_oracle.match_spectrum([e.real for e in energies], eigs, tol)
    gaps = tuple(abs(e - level) for e, level in zip(energies, report.nearest))
    return dataclasses.replace(report, gaps=gaps,
                               passed=all(g < tol for g in gaps))


def match_sector(lsites: int, coupling: float, n_charge: int, m_spin: int,
                 tol: float):
    """Solve every admissible mode set of a sector and match the oracle.

    Returns (outcomes, report).  outcomes lists (mode_k, mode_lam, roots,
    error) in enumeration order, where roots is None and error the
    solver's message if the solve failed; report is the MatchReport of
    the solved energies, in the same order, against the sector's spectrum.
    """
    eigs = ed_oracle.spectrum(ed_oracle.build_hamiltonian(
        lsites, coupling, (n_charge - m_spin, m_spin)))
    outcomes = []
    for mk, ml in _admissible_modes(lsites, n_charge, m_spin):
        try:
            roots = hb.solve_liebwu(lsites, coupling, n_charge, m_spin,
                                    list(mk), list(ml))
        except (NoConvergence, PathCollision) as exc:
            outcomes.append((mk, ml, None, str(exc)))
            continue
        outcomes.append((mk, ml, roots, None))
    energies = [hb.energy_momentum(lsites, coupling, roots)[0]
                for _, _, roots, error in outcomes if error is None]
    return outcomes, match_energies(energies, eigs, tol)


def _match_sectors(sectors, tol: float, key):
    """match_sector over (L, u, N, M) sectors, counting the mode sets.

    Returns (counts, results): counts holds the attempted and skipped
    mode sets, with the skips by key(sector); results lists
    (sector, outcomes, report).
    """
    counts = {"attempted": 0, "skipped": 0, "skipped_by_sector": {}}
    results = []
    for sector in sectors:
        outcomes, report = match_sector(*sector, tol)
        skipped = len(outcomes) - len(report.gaps)
        counts["attempted"] += len(outcomes)
        counts["skipped"] += skipped
        if skipped:
            counts["skipped_by_sector"][key(sector)] = skipped
        results.append((sector, outcomes, report))
    return counts, results


def _battery_liebwu(rng_seed: int, tol) -> Tuple[bool, dict]:
    tol = 1e-8 if tol is None else tol
    errors = []
    grid, results = _match_sectors(_liebwu_grid_cases(), tol,
                                   lambda case: "L=%d u=%g N=%d M=%d" % case)
    for case, _, report in results:
        if not report.gaps and case[2] > 0:
            errors.append(("empty sector", case))
        if not report.passed:
            errors.append(("oracle mismatch", case))
    worst = max(report.max_gap for _, _, report in results)

    # Free limit.  Without spin roots the momenta decouple and the
    # closed form -2 sum cos(2 pi I / L) applies; a spin root shifts
    # each charge mode by a half unit whose side depends on the root,
    # so those sectors are matched against the oracle at the same
    # coupling instead.
    free_u = 1e-8
    free, results = _match_sectors(
        sorted({(lsites, free_u, n_charge, m_spin)
                for lsites, _, n_charge, m_spin in _liebwu_grid_cases()
                if n_charge > 0}),
        1e-4, lambda case: "L=%d N=%d M=%d" % (case[0], *case[2:]))
    worst_free = 0.0
    for (lsites, _, n_charge, m_spin), outcomes, report in results:
        if not report.gaps:
            errors.append(("free limit empty", (lsites, n_charge, m_spin)))
        gaps = report.gaps
        if not m_spin:
            gaps = []
            for mk, _, roots, error in outcomes:
                if error is None:
                    energy, _ = hb.energy_momentum(lsites, free_u, roots)
                    closed = free_u * (lsites - 2 * n_charge) - 2 * sum(
                        math.cos(2.0 * math.pi * i / lsites) for i in mk)
                    gaps.append(abs(energy - closed))
        worst_free = max([worst_free, *gaps])
    ok = not errors and worst_free < 1e-4
    return ok, {"max_gap": worst, "max_free_gap": worst_free, "errors": errors,
                "solved": grid["attempted"] - grid["skipped"], **grid,
                **{"free_" + name: value for name, value in free.items()}}


# --------------------------------------------------------------------------
# Analytic layer


def _off_cut_points(rng: random.Random, count: int) -> list:
    return [complex(rng.uniform(-3.0, 3.0), 0.21 + rng.uniform(0.0, 0.55))
            for _ in range(count)]


def truncation_errors(hcoup: float, vs: Sequence[float],
                      orders: Sequence[int], points: int,
                      rng_seed: int) -> dict:
    """Worst relative errors of the exact truncation identities.

    'telescope' is f_N(u) / f_N(u + i) against F(u) / F(u + i(N + 1));
    'mu' and 'omega' are the sheet-swap ratios against F(u)^2, each at
    `points` random off-cut points per truncation order.
    """
    yplus, yminus = al.shell_pairs(hcoup, vs)
    source = al.SourceF.ext(hcoup, yplus, yminus)
    rng = random.Random(rng_seed)
    worst = {"telescope": 0.0, "mu": 0.0, "omega": 0.0}
    for n in orders:
        for u in _off_cut_points(rng, points):
            lhs = al.truncated_f(source, n, u) / al.truncated_f(source, n, u + 1j)
            rhs = source(u) / source(u + 1j * (n + 1))
            worst["telescope"] = max(worst["telescope"], abs(lhs / rhs - 1.0))
            fsq = source(u) ** 2
            mu, om = al.mu_omega(source, n, u)
            mut, omt = al.mu_omega(source, n, u, swap_sheet=True)
            worst["mu"] = max(worst["mu"], abs(mu / mut / fsq - 1.0))
            worst["omega"] = max(worst["omega"], abs(om / omt / fsq - 1.0))
    return worst


def _battery_truncation(rng_seed: int, tol) -> Tuple[bool, dict]:
    tol = 1e-12 if tol is None else tol
    orders, points = (4, 16), 200
    worst = max(truncation_errors(1.0, (0.7, -0.7), orders, points,
                                  rng_seed).values())
    return worst < tol, {"max_rel_err": worst, "orders": list(orders),
                         "points": points}


def _conditioned_baxter_draw(rng: random.Random):
    """Random step data kept away from the singular strata."""
    def entry(lo=0.3, hi=1.5):
        radius = rng.uniform(lo, hi)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return radius * cmath.exp(1j * angle)

    while True:
        fval = entry(0.5, 2.0)
        if abs(fval - 1.0) < 0.2 or abs(fval + 1.0) < 0.2:
            continue
        p = np.array([entry(), entry()])
        direction = np.array([entry(), entry()])
        scale = (1.0 / fval - fval) / (direction @ p)
        pstar = direction * scale
        mu = np.array([[entry(), entry()], [entry(), entry()]])
        sym = (mu + mu.T) / 2.0
        if abs(np.linalg.det(sym)) < 0.05 or abs(mu[0, 1] - mu[1, 0]) < 0.05:
            continue
        return mu, p, pstar, fval


def _battery_baxter(rng_seed: int, tol) -> Tuple[bool, dict]:
    tol = 1e-12 if tol is None else tol
    rng = random.Random(rng_seed)
    worst = 0.0
    for _ in range(100):
        mu, p, pstar, fval = _conditioned_baxter_draw(rng)
        out = al.baxter_step(mu, p, pstar, fval)
        anti_in = (mu[0, 1] - mu[1, 0]) / 2.0
        anti_out = (out[0, 1] - out[1, 0]) / 2.0
        worst = max(worst, abs(anti_out / anti_in * fval ** 2 - 1.0))
        det_in = np.linalg.det((mu + mu.T) / 2.0)
        det_out = np.linalg.det((out + out.T) / 2.0)
        worst = max(worst, abs(det_out / det_in * fval ** 4 - 1.0))
    return worst < tol, {"max_rel_err": worst, "draws": 100}


_PMU_PROBES = (0.31 + 0.77j, -0.52 + 0.61j, 1.27 + 0.39j, 0.08 - 0.84j,
               -1.62 + 0.27j, 0.95 + 1.1j, -0.33 - 0.71j, 2.05 + 0.15j)


def _canonical_nested():
    """The reference solved one-root-per-node configuration."""
    hcoup = 1.0
    yplus, yminus = al.shell_pairs(hcoup, [0.7, -0.7])
    spec = hb.HubbardSpec(hcoup, 2, yplus, yminus,
                          twist_x=cmath.exp(0.3j), twist_y=cmath.exp(-0.2j))
    seed = hb.HubbardRoots((1j * cmath.exp(-0.3j),), (-0.6 + 0.1j,),
                           (cmath.exp(2.9j) / 1j,))
    roots = hb.solve_nested(spec, (1, 1, 1), seed)
    return spec, roots


def pmu_residuals(n_trunc: int):
    """Case-B P-mu residuals of the solved reference configuration.

    Returns (spec, roots, fit, worst): the fit residual of the P pair
    and the largest monodromy residual over the fixed probe points.
    """
    spec, roots = _canonical_nested()
    source = al.SourceF.ext(spec.hcoup, spec.yplus, spec.yminus)
    p_eval, pstar_eval, fit = al.caseb_p_evaluators(
        source, roots.x1e, roots.x112)
    worst = 0.0
    for u in _PMU_PROBES:
        res = al.pmu_residual_caseB(p_eval, pstar_eval, source, n_trunc, u)
        worst = max(worst, float(np.max(np.abs(res))))
    return spec, roots, fit, worst


def _battery_pmu(rng_seed: int, tol) -> Tuple[bool, dict]:
    tol = 1e-8 if tol is None else tol
    n_trunc = 12
    _, _, fit, worst = pmu_residuals(n_trunc)
    ok = worst < tol and fit < tol
    return ok, {"max_residual": worst, "fit_residual": fit,
                "n_trunc": n_trunc, "probes": len(_PMU_PROBES)}


# --------------------------------------------------------------------------
# AdS3 and the oracle itself


def crossing_reports(state: ads3.AdS3Roots, eta: int, tol: float):
    """(const, toy) crossing reports; only the toy model should pass."""
    const = ads3.crossing_structure_check(
        state, lambda u, crossings: 1.0 + 0j, eta=eta, tol=tol)
    toy = ads3.crossing_structure_check(
        state, ads3.toy_sigma_plus(state, eta), eta=eta, tol=tol)
    return const, toy


def _battery_ads3(rng_seed: int, tol) -> Tuple[bool, dict]:
    tol = 1e-8 if tol is None else tol
    ys = [1.7 - 0.4j, -2.25 + 0.5j]
    ybars = [3.5 + 1.5j]
    cont = all(
        ads3.aux_r(1.0 / x, ys[:n], ybars[:m]) == ads3.aux_b(x, ys[:n], ybars[:m])
        for x in (2.0, -1.5 + 0.0j, 0.25 + 0.0j)
        for n in (0, 1, 2) for m in (0, 1))
    state = ads3.solve_two_particle(1.0, 8)
    worst = float(np.max(np.abs(ads3.aba_residuals(state))))
    const, toy = crossing_reports(state, 1, tol)
    ok = cont and worst < 1e-10 and (not const.passed) and toy.passed
    return ok, {
        "continuation_exact": cont,
        "max_residual": worst,
        "const_passed": const.passed,
        "toy_rel_gap": toy.rel_gap,
    }


def _battery_ed(rng_seed: int, tol) -> Tuple[bool, dict]:
    tol = 1e-9 if tol is None else tol
    checks = {}
    dims_ok = True
    sites = [1, 2, 3, 4]
    for lsites in sites:
        total = sum(ed_oracle.fock_sector(lsites, a, b).dim
                    for a, b in ed_oracle.sector_table(lsites))
        dims_ok = dims_ok and total == 4 ** lsites
    checks["dimension_audit"] = dims_ok
    checks["audited_sites"] = sites
    trace_gap = 0.0
    swap_gap = 0.0
    for lsites, coupling, sector in ((2, 1.0, (1, 1)), (3, 0.5, (2, 1))):
        ham = ed_oracle.build_hamiltonian(lsites, coupling, sector)
        eigs = ed_oracle.spectrum(ham)
        trace_gap = max(trace_gap, abs(float(np.trace(ham)) - float(np.sum(eigs))))
        swapped = ed_oracle.spectrum(
            ed_oracle.build_hamiltonian(lsites, coupling, sector[::-1]))
        swap_gap = max(swap_gap, float(np.max(np.abs(eigs - swapped))))
    checks["trace_gap"] = trace_gap
    checks["swap_gap"] = swap_gap
    eigs = ed_oracle.spectrum(ed_oracle.build_hamiltonian(2, 1.0, (1, 0)))
    pinned = float(np.max(np.abs(eigs - np.array([-2.0, 2.0]))))
    checks["pinned_sector_gap"] = pinned
    ok = dims_ok and trace_gap < tol and swap_gap < tol and pinned < tol
    return ok, checks


BATTERIES = (
    ("qq", _battery_qq),
    ("hodge", _battery_hodge),
    ("hirota", _battery_hirota),
    ("character", _battery_character),
    ("liebwu", _battery_liebwu),
    ("truncation", _battery_truncation),
    ("baxter", _battery_baxter),
    ("pmu", _battery_pmu),
    ("ads3", _battery_ads3),
    ("ed", _battery_ed),
)
