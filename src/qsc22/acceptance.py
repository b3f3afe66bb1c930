"""Acceptance batteries: the seven checks behind `qsc22 suite` and the tests.

Each battery takes an rng_seed and returns a `BatteryResult`, which
alone decides whether the battery passed and by what margin.  The
bounds are the public constants below; no option overrides them.  The
exact batteries compare polynomials and have no bound.  `BATTERIES`
lists the batteries in suite order.  The commands `check-qq`,
`check-hirota` and `character` run the exact checks on one input; the
randomized corpora run only here.  `compare` and `ads3-residuals` gate
on the bounds below.  A battery states only what a wrong input can
fail; identities that hold for any input are unit tests.  So the
liebwu battery holds every sector, the grid's and their copies near the
free limit, to LIEBWU_BOUND against the oracle, and the M = 0 closed
form k = 2 pi I / L, which holds at every coupling, is a unit test.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from . import ads3, ed_oracle
from . import hubbard_bethe as hb
from . import qsystem, ty_system
from ._newton import NoConvergence
from .exact_poly import GaussRat

LIEBWU_BOUND = 1e-8
ADS3_BOUND = 1e-10
ED_BOUND = 1e-9


@dataclass(frozen=True)
class BatteryResult:
    """What one battery attempted, measured and found wrong.

    `measured` and `bound` map a gap name to its value and to the bound
    it must stay strictly below; `skipped` maps a label to the cases
    skipped under it; `failures` lists JSON-ready entries.
    """

    attempted: int
    failures: tuple = ()
    measured: Mapping[str, float] = field(default_factory=dict)
    bound: Mapping[str, float] = field(default_factory=dict)
    skipped: Mapping[str, int] = field(default_factory=dict)
    detail: Mapping = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures and all(
            self.measured[name] < bound for name, bound in self.bound.items())

    @property
    def margin(self) -> Optional[float]:
        """Smallest bound/gap ratio (inf for a zero gap), None if unbounded."""
        if not self.bound:
            return None
        return min(bound / self.measured[name] if self.measured[name] else math.inf
                   for name, bound in self.bound.items())

    def as_json(self) -> dict:
        return _plain({"ok": self.ok, "margin": self.margin,
                       "attempted": self.attempted, "failures": self.failures,
                       "measured": self.measured, "bound": self.bound,
                       "skipped": self.skipped, "detail": self.detail})


def _plain(obj):
    """obj with tuples as lists, as json.loads would return it."""
    if isinstance(obj, Mapping):
        return {name: _plain(value) for name, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    return obj


# --------------------------------------------------------------------------
# Exact layer


def _draw_seed_ints(rng_seed: int, count: int) -> list:
    """`count` generator seeds for qsystem.random_seed_polys."""
    rng = random.Random(rng_seed)
    return [rng.randrange(2 ** 31) for _ in range(count)]


def _battery_qq(rng_seed: int) -> BatteryResult:
    seeds = _draw_seed_ints(rng_seed, 20)
    reports = [(s, qsystem.check_qq(qsystem.generate_from_seed(
        *qsystem.random_seed_polys(s)))) for s in seeds]
    bad = [(s, rep.failures) for s, rep in reports
           if not rep.ok or rep.checked != 49]
    return BatteryResult(len(seeds), tuple(bad), detail={
        "checked": sum(rep.checked for _, rep in reports)})


def _battery_hodge(rng_seed: int) -> BatteryResult:
    # The dual of a Q-system is a Q-system.  The double-dual sign law
    # depends on `_HODGE` alone, so it is a unit test, not a statement.
    failures = []
    seeds = _draw_seed_ints(rng_seed + 1, 3)
    dual_checked = 0
    for s in seeds:
        q = qsystem.generate_from_seed(*qsystem.random_seed_polys(s))
        report = qsystem.check_qq(qsystem.hodge(q))
        dual_checked += report.checked
        if not report.ok or report.checked != 49:
            failures.append((s, "dual QQ", report.failures))
    return BatteryResult(len(seeds), tuple(failures),
                         detail={"dual_checked": dual_checked})


def _battery_hirota(rng_seed: int) -> BatteryResult:
    # Hirota on the 20 systems of the qq battery.  The corner Y identity
    # holds for any 16 slots, so it is a unit test of t_function.
    seeds = _draw_seed_ints(rng_seed, 20)
    failures = []
    for s in seeds:
        q = qsystem.generate_from_seed(*qsystem.random_seed_polys(s))
        report = ty_system.check_hirota(q)
        if not report.ok:
            failures.append((s, report.failures))
    return BatteryResult(len(seeds), tuple(failures))


def _random_half_twist(rng: random.Random) -> GaussRat:
    while True:
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        if a != b:
            z = GaussRat(a, b)
            return z / z.conjugate()


def character_report(sx: GaussRat, sy: GaussRat) -> dict:
    """Exact QQ, Hirota, Hodge and shift checks of one character solution."""
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


def _battery_character(rng_seed: int) -> BatteryResult:
    # The first 10 non-degenerate random twist pairs.
    rng = random.Random(rng_seed)
    runs = []
    while len(runs) < 10:
        pair = (_random_half_twist(rng), _random_half_twist(rng))
        try:
            runs.append(character_report(*pair))
        except ty_system.DegenerateTwist:
            continue
    return BatteryResult(len(runs), tuple(r for r in runs if not r["ok"]))


# --------------------------------------------------------------------------
# Lieb-Wu against the oracle


def _liebwu_grid_cases():
    for lsites in (2, 3, 4):
        for coupling in (0.5, 1.0, 2.0):
            for n_charge in range(0, lsites + 1):
                for m_spin in range(0, n_charge // 2 + 1):
                    yield lsites, coupling, n_charge, m_spin


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
    for mk, ml in hb.admissible_modes(lsites, n_charge, m_spin):
        try:
            roots = hb.solve_liebwu(lsites, coupling, n_charge, m_spin,
                                    list(mk), list(ml))
        except NoConvergence as exc:
            outcomes.append((mk, ml, None, str(exc)))
            continue
        outcomes.append((mk, ml, roots, None))
    energies = [hb.energy_momentum(lsites, coupling, roots)[0]
                for _, _, roots, error in outcomes if error is None]
    return outcomes, ed_oracle.match_spectrum(energies, eigs, tol)


def _battery_liebwu(rng_seed: int) -> BatteryResult:
    # The grid, then its sectors with charges again at u = 1e-8, near
    # the free limit.
    grid = list(_liebwu_grid_cases())
    sectors = grid + sorted({(lsites, 1e-8, n_charge, m_spin)
                             for lsites, _, n_charge, m_spin in grid if n_charge > 0})
    errors, skipped = [], {}
    attempted, worst = 0, 0.0
    for sector in sectors:
        outcomes, report = match_sector(*sector, LIEBWU_BOUND)
        attempted += len(outcomes)
        worst = max(worst, report.max_gap)
        if len(outcomes) > len(report.gaps):
            skipped["L=%d u=%g N=%d M=%d" % sector] = len(outcomes) - len(report.gaps)
        if not report.gaps and sector[2] > 0:
            errors.append(("empty sector", sector))
        if not report.passed:
            errors.append(("oracle mismatch", sector))
    return BatteryResult(attempted, tuple(errors), measured={"max_gap": worst},
                         bound={"max_gap": LIEBWU_BOUND}, skipped=skipped)


# --------------------------------------------------------------------------
# AdS3 and the oracle itself


def _battery_ads3(rng_seed: int) -> BatteryResult:
    state = ads3.solve_two_particle(1.0, 8)
    worst = float(np.max(np.abs(ads3.aba_residuals(state))))
    return BatteryResult(1, measured={"max_residual": worst},
                         bound={"max_residual": ADS3_BOUND})


def _battery_ed(rng_seed: int) -> BatteryResult:
    # At u = 0 each species fills single-particle levels -2 cos(2 pi k / L)
    # independently; a wrong fermionic sign or coupling moves the levels.
    free_gap = 0.0
    for lsites, sector in ((3, (2, 1)), (4, (2, 2))):
        levels = [-2.0 * math.cos(2.0 * math.pi * k / lsites) for k in range(lsites)]
        up, down = ([sum(occ) for occ in itertools.combinations(levels, n)] for n in sector)
        free = np.sort(np.add.outer(up, down), axis=None)
        eigs = ed_oracle.spectrum(ed_oracle.build_hamiltonian(lsites, 0.0, sector))
        free_gap = max(free_gap, float(np.max(np.abs(eigs - free))))
    return BatteryResult(2, measured={"free_fermion_gap": free_gap},
                         bound={"free_fermion_gap": ED_BOUND})


BATTERIES = (
    ("qq", _battery_qq),
    ("hodge", _battery_hodge),
    ("hirota", _battery_hirota),
    ("character", _battery_character),
    ("liebwu", _battery_liebwu),
    ("ads3", _battery_ads3),
    ("ed", _battery_ed),
)
