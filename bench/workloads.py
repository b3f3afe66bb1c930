"""Inputs and certification steps of the four benchmark workloads.

Each workload turns the benchmark seed into a deterministic item stream
and certifies one item at a time through the public functions of
`qsc22.qsystem`, `qsc22.ty_system`, `qsc22.ed_oracle` and
`qsc22.hubbard_bethe`, in the order the `check-qq`/`check-hirota`,
`character` and `compare` commands use them.  Layer functions are always
looked up on their module at call time, so the tracer in `tracing.py`
(and the fault injection of the negative controls) sees every call.

Every certification ends in gates that only right answers pass; a gate
that trips raises `GateError` and aborts the run.  Bethe solves that
raise `NoConvergence` or `PathCollision` are not wrong answers: they are
counted as failed operations.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from qsc22 import ed_oracle, hubbard_bethe, qsystem, ty_system
from qsc22._newton import NoConvergence, PathCollision
from qsc22.exact_poly import GaussRat

QQ_RELATIONS = 49
HIROTA_WINDOW = (4, 4)
HIROTA_CELLS = 20
ENERGY_TOL = 1e-8
COUPLING_RANGE = (0.3, 3.0)
ED_LARGE_DIM_CAP = 120


class GateError(AssertionError):
    """A certified output was wrong; the run must not report numbers."""


@dataclass
class Outcome:
    """What certifying one item attempted, how many operations failed,
    and the largest oracle gap among the solved energies."""

    attempted: int = 1
    failed: int = 0
    max_gap: float = 0.0


def _gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


# --------------------------------------------------------------------------
# exact_random


def _odd_degrees(seed_int: int) -> Tuple[int, int]:
    _, bs = qsystem.random_seed_polys(seed_int)
    return bs[0].degree(), bs[1].degree()


# (deg b1, deg b2) strata of `random_seed_polys`.  Every round holds one
# system per stratum, so the degree mix -- which sets the cost of an
# item -- is the same in every round and under every seed.
DEGREE_STRATA = tuple(itertools.product((1, 2, 3), repeat=2))


def random_rounds(rng: random.Random, rounds: int) -> List[List[int]]:
    """Rounds of `random_seed_polys` seed integers, one per degree stratum."""
    out = []
    for _ in range(rounds):
        found: Dict[Tuple[int, int], int] = {}
        while len(found) < len(DEGREE_STRATA):
            cand = rng.randrange(2 ** 31)
            found.setdefault(_odd_degrees(cand), cand)
        order = list(DEGREE_STRATA)
        rng.shuffle(order)
        out.append([found[d] for d in order])
    return out


def certify_random(seed_int: int) -> Outcome:
    b0, bs = qsystem.random_seed_polys(seed_int)
    q = qsystem.generate_from_seed(b0, bs)
    _check_qq(q)
    _check_hirota(q)
    num, den = ty_system.y_pair(q, 1, 1)
    num2, den2 = ty_system.y_pair(q, 2, 2)
    _gate(num * num2 * q["12|12"].shift(-1) == den * den2 * q["12|12"].shift(1),
          f"corner Y identity fails for seed {seed_int}")
    dd = qsystem.hodge(qsystem.hodge(q))
    for slot in qsystem.SLOTS:
        na, ni = qsystem.slot_grades(slot)
        sign = 1 if (na + ni) % 2 == 0 else -1
        _gate(dd[slot] == sign * q[slot],
              f"Hodge double dual fails at {slot} for seed {seed_int}")
    return Outcome()


def _check_qq(q) -> None:
    rep = qsystem.check_qq(q)
    _gate(rep.ok and rep.checked == QQ_RELATIONS and not rep.failures,
          f"QQ: checked {rep.checked}, failures {list(rep.failures)}")


def _check_hirota(q) -> None:
    rep = ty_system.check_hirota(q, HIROTA_WINDOW)
    _gate(rep.ok and rep.checked == HIROTA_CELLS and not rep.failures,
          f"Hirota: checked {rep.checked}, failures {list(rep.failures)}")


def random_descriptors(items: Sequence[int]) -> dict:
    hist: collections.Counter = collections.Counter()
    bits = 0
    for seed_int in items:
        _, bs = qsystem.random_seed_polys(seed_int)
        hist[f"{bs[0].degree()},{bs[1].degree()}"] += 1
        for p in bs:
            for s, coeffs in p.terms:
                for c in (s,) + coeffs:
                    for x in (c.re, c.im):
                        bits = max(bits, x.numerator.bit_length(),
                                   x.denominator.bit_length())
    return {"degree_histogram": dict(sorted(hist.items())),
            "max_coeff_bits": bits}


# --------------------------------------------------------------------------
# exact_character


def random_half_twist(rng: random.Random) -> GaussRat:
    """A unimodular Gaussian rational z / conj(z), as the `character`
    command draws them; only 30 distinct values exist."""
    while True:
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        if a != b:
            z = GaussRat(a, b)
            return z / z.conjugate()


def character_pairs(rng: random.Random, count: int,
                    exclude: Sequence[Tuple[GaussRat, GaussRat]] = ()) -> list:
    """Non-degenerate half-twist pairs, filtered as `character` does."""
    pairs: list = []
    while len(pairs) < count:
        cand = (random_half_twist(rng), random_half_twist(rng))
        if cand in exclude:
            continue
        try:
            ty_system.character_solution(*cand)
        except ty_system.DegenerateTwist:
            continue
        pairs.append(cand)
    return pairs


def certify_character(pair: Tuple[GaussRat, GaussRat]) -> Outcome:
    q = ty_system.character_solution(*pair)
    _check_qq(q)
    _check_hirota(q)
    th = ty_system.wronskian_T(q)
    th_dual = ty_system.wronskian_T(qsystem.hodge(q))
    _gate(th.values == th_dual.values, f"Hodge triviality fails for {pair}")
    _gate(all(p.shift(2) == p for p in th.values.values()),
          f"shift invariance fails for {pair}")
    return Outcome()


def character_descriptors(items: Sequence[Tuple[GaussRat, GaussRat]]) -> dict:
    seen: set = set()
    seen_pairs: set = set()
    recurring = repeated_pairs = 0
    for sx, sy in items:
        recurring += sx in seen or sy in seen
        repeated_pairs += (sx, sy) in seen_pairs
        seen.update((sx, sy))
        seen_pairs.add((sx, sy))
    n = max(1, len(items))
    return {"recurring_twist_share": recurring / n,
            "repeated_pair_share": repeated_pairs / n,
            "distinct_twists": len(seen)}


# --------------------------------------------------------------------------
# Hubbard workloads: one item is one (L, u, N, M) sector


@dataclass(frozen=True)
class Sector:
    lsites: int
    coupling: float
    n_charge: int
    m_spin: int
    modes: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]

    @property
    def dim(self) -> int:
        return (math.comb(self.lsites, self.n_charge - self.m_spin)
                * math.comb(self.lsites, self.m_spin))


def admissible_modes(lsites: int, n_charge: int, m_spin: int) -> list:
    """Every mode set the `compare` command tries for a sector: charge
    modes free modulo L, spin modes strictly inside (M - 1 - N, 0)."""
    return list(itertools.product(
        itertools.combinations(range(lsites), n_charge),
        itertools.combinations(range(m_spin - n_charge, 0), m_spin),
    ))


def stratified_couplings(rng: random.Random, count: int) -> List[float]:
    """One coupling per equal log-width stratum of COUPLING_RANGE, so
    the draws are log-uniform and every round spans the whole range."""
    lo, hi = (math.log(x) for x in COUPLING_RANGE)
    width = (hi - lo) / count
    return [math.exp(lo + (k + rng.random()) * width) for k in range(count)]


def _shapes(lsites_set, dim_cap=None):
    for lsites in lsites_set:
        for n_charge in range(1, lsites + 1):
            for m_spin in range(0, n_charge // 2 + 1):
                dim = (math.comb(lsites, n_charge - m_spin)
                       * math.comb(lsites, m_spin))
                if dim_cap is None or dim <= dim_cap:
                    yield lsites, n_charge, m_spin


def liebwu_rounds(rng: random.Random, rounds: int) -> List[List[Sector]]:
    """Each round: three fresh couplings times every sector of the
    L in {2,3,4} grid with N >= 1, each with all admissible mode sets."""
    out = []
    for _ in range(rounds):
        out.append([
            Sector(lsites, u, n, m, tuple(admissible_modes(lsites, n, m)))
            for u in stratified_couplings(rng, 3)
            for lsites, n, m in _shapes((2, 3, 4))
        ])
    return out


def ed_large_rounds(rng: random.Random, rounds: int) -> List[List[Sector]]:
    """Each round: one coupling (alternating between the lower and upper
    log-half of the range, as a fresh pair is drawn every two rounds)
    times every L in {5,6} sector up to dimension ED_LARGE_DIM_CAP, each
    with two seed-chosen admissible mode sets."""
    out: List[List[Sector]] = []
    while len(out) < rounds:
        for u in stratified_couplings(rng, 2):
            rnd = []
            for lsites, n, m in _shapes((5, 6), ED_LARGE_DIM_CAP):
                modes = admissible_modes(lsites, n, m)
                picked = sorted(rng.sample(range(len(modes)), min(2, len(modes))))
                rnd.append(Sector(lsites, u, n, m, tuple(modes[i] for i in picked)))
            out.append(rnd)
    return out[:rounds]


def certify_sector(sec: Sector) -> Outcome:
    """One ED spectrum; every solved energy must sit on an ED level."""
    ham = ed_oracle.build_hamiltonian(
        sec.lsites, sec.coupling, (sec.n_charge - sec.m_spin, sec.m_spin))
    eigs = ed_oracle.spectrum(ham)
    failed = 0
    energies = []
    for mk, ml in sec.modes:
        try:
            roots = hubbard_bethe.solve_liebwu(
                sec.lsites, sec.coupling, sec.n_charge, sec.m_spin,
                list(mk), list(ml))
        except (NoConvergence, PathCollision):
            failed += 1
            continue
        energy, _ = hubbard_bethe.energy_momentum(sec.lsites, sec.coupling, roots)
        _gate(isinstance(energy, float), f"complex energy {energy} in {sec}")
        energies.append(energy)
    report = ed_oracle.match_spectrum(energies, eigs, ENERGY_TOL)
    _gate(report.passed,
          f"energy off the ED spectrum by {report.max_gap:.3e} in {sec}")
    return Outcome(attempted=len(sec.modes), failed=failed,
                   max_gap=report.max_gap)


def sector_descriptors(items: Sequence[Sector]) -> dict:
    dims = collections.Counter(sec.dim for sec in items)
    return {
        "sector_dims": {str(d): c for d, c in sorted(dims.items())},
        "mode_sets": sum(len(sec.modes) for sec in items),
        "couplings": sorted({round(sec.coupling, 6) for sec in items}),
    }


# --------------------------------------------------------------------------
# Registry


# Rounds generated per run: enough that the timed loop does not cycle
# on a machine several times faster than a 2-core Xeon running the seed
# commit.  exact_character filters every candidate pair through
# `character_solution`, which makes its pool expensive to draw, so that
# workload cycles a fixed pool (its twists recur anyway).
ROUNDS = {"exact_random": 40, "liebwu_grid": 40, "ed_large": 16}
CHARACTER_POOL = 24
# The tail latency is taken over this many first rounds, so every run of
# a workload reports the same percentile however many rounds fit into
# the run.  The counts put the 11th-largest item inside one kind of item
# rather than on the boundary between two, where it would jump: on
# ed_large, for example, 4 rounds hold 20 items of dimension 90-120.
TAIL_ROUNDS = {"exact_random": 5, "exact_character": 4, "liebwu_grid": 2,
               "ed_large": 4}
# Warm-up items of one fixed kind per workload, so that set-up time does
# not depend on the seed.
WARMUP_DEGREES = (2, 2)


@dataclass(frozen=True)
class Inputs:
    """A workload's generated inputs: the warm-up item and the timed
    items, grouped in rounds of identical composition.  The traced run
    repeats the first round."""

    warmup: object
    rounds: List[list]

    def round_stream(self) -> Iterator[list]:
        """Timed rounds in order, cycling when they run out."""
        return itertools.cycle(self.rounds)


def make_inputs(workload: str, seed: int) -> Inputs:
    """Deterministic inputs for a workload.  The warm-up item is of a
    fixed kind, comes from a separate random stream and never occurs
    among the timed items."""
    rng = random.Random(f"{workload}/{seed}")
    warm_rng = random.Random(f"{workload}/{seed}/warmup")
    if workload == "exact_random":
        rounds = random_rounds(rng, ROUNDS[workload])
        timed = set(itertools.chain.from_iterable(rounds))
        while True:
            warm = warm_rng.randrange(2 ** 31)
            if warm not in timed and _odd_degrees(warm) == WARMUP_DEGREES:
                break
        return Inputs(warm, rounds)
    if workload == "exact_character":
        pool = character_pairs(rng, CHARACTER_POOL)
        warm = character_pairs(warm_rng, 1, exclude=pool)[0]
        return Inputs(warm, [pool])
    if workload == "liebwu_grid":
        rounds = liebwu_rounds(rng, ROUNDS[workload])
        warm = liebwu_rounds(warm_rng, 1)[0]
        warm_item = next(s for s in warm if (s.lsites, s.m_spin) == (3, 1))
        return Inputs(warm_item, rounds)
    if workload == "ed_large":
        rounds = ed_large_rounds(rng, ROUNDS[workload])
        warm = ed_large_rounds(warm_rng, 1)[0]
        return Inputs(next(s for s in warm if s.dim == 50), rounds)
    raise ValueError(f"unknown workload {workload!r}")


CERTIFY = {
    "exact_random": certify_random,
    "exact_character": certify_character,
    "liebwu_grid": certify_sector,
    "ed_large": certify_sector,
}

DESCRIBE = {
    "exact_random": random_descriptors,
    "exact_character": character_descriptors,
    "liebwu_grid": sector_descriptors,
    "ed_large": sector_descriptors,
}

WORKLOADS = tuple(CERTIFY)
