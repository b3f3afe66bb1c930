"""Generation and exact verification of the sixteen-component systems."""

from __future__ import annotations

import itertools
import json
import random

from qsc22 import qsystem
from qsc22.exact_poly import GaussRat, TwistedPoly, wronskian
from qsc22.qsystem import (
    _COMPONENT,
    _HODGE,
    _QQ_RELATIONS,
    SLOTS,
    QSystem,
    check_qq,
    generate_from_seed,
    hodge,
    qq_residuals,
    random_seed_polys,
    slot_grades,
)


def _system(seed: int) -> QSystem:
    return generate_from_seed(*random_seed_polys(seed))


def test_slot_inventory():
    assert len(SLOTS) == 16
    assert len(set(SLOTS)) == 16
    grades = sorted(slot_grades(s) for s in SLOTS)
    assert grades.count((1, 1)) == 4
    assert grades.count((0, 0)) == 1
    assert grades.count((2, 2)) == 1


def test_component_table_covers_every_seed_subset_once():
    subsets = [sub for _, sub in _COMPONENT.values()]
    assert sorted(_COMPONENT) == sorted(SLOTS)
    assert sorted(subsets) == sorted(sub for k in range(5)
                                     for sub in itertools.combinations(range(1, 5), k))
    for slot, (sign, sub) in _COMPONENT.items():
        na, ni = slot_grades(slot)
        assert sign in (1, -1) and len(sub) == na + 2 - ni, slot


def test_random_seed_polys_are_admissible():
    b0, bs = random_seed_polys(123)
    assert b0 == TwistedPoly.one()
    assert len(bs) == 4
    t1, t2 = bs[0].twists()[0], bs[1].twists()[0]
    assert t1 * t2 == GaussRat.ONE
    assert bs[2].twists() == (GaussRat.ONE,)
    assert bs[3].twists() == (GaussRat.ONE,)
    assert bs[2].degree() == 1 and bs[3].degree() == 1
    assert not wronskian(bs[2], bs[3]).is_zero


def test_generation_is_deterministic():
    assert _system(42) == _system(42)
    assert _system(42) != _system(43)


def test_check_qq_passes_on_generated_systems():
    for seed in (1, 7, 2026):
        rep = check_qq(_system(seed))
        assert rep.ok
        assert rep.checked == 49
        assert rep.failures == ()
        assert rep.zero_slots == ()


def test_residual_inventory_is_exactly_the_checked_count():
    q = _system(5)
    names = [name for name, _ in qq_residuals(q)]
    assert len(names) == 49
    assert len(set(names)) == 49


def test_perturbation_is_detected_and_named():
    q = _system(9)
    mapping = {s: q[s] for s in q}
    bump = TwistedPoly.from_coeffs([GaussRat.ZERO, GaussRat(3)])
    mapping["1|1"] = mapping["1|1"] + bump
    rep = check_qq(QSystem(mapping))
    assert not rep.ok
    assert rep.failures
    assert any("1|1" in name for name in rep.failures)


def _folded_residuals(q: QSystem):
    """Every relation of `_QQ_RELATIONS` folded with `*`, `+` and `-`,
    its factors read by name through `_HODGE`."""
    def factor(raised, slot, k):
        sign, src = _HODGE[slot] if raised else (1, slot)
        return (sign * q[src]).shift(k)

    out = []
    for name, terms in _QQ_RELATIONS:
        res = TwistedPoly.zero()
        for sign, f, g in terms:
            prod = factor(*f) * factor(*g)
            res = res + prod if sign > 0 else res - prod
        out.append((name, res))
    return out


def test_residuals_match_a_fold_of_the_relation_table(monkeypatch):
    # The raised factors are read through `_HODGE` at import, so the
    # residuals build no dual.
    monkeypatch.setattr(qsystem, "hodge", None)
    q = _system(13)
    bump = TwistedPoly.from_coeffs([GaussRat(1), GaussRat(0, 2)])
    for slot in ("1|2", "0|0", "12|1"):
        mapping = dict(q.items())
        mapping[slot] = mapping[slot] + bump
        perturbed = QSystem(mapping)
        got = list(qq_residuals(perturbed))
        assert got == _folded_residuals(perturbed), slot
        assert any(not res.is_zero for _, res in got), slot


def test_hodge_double_dual_signs():
    # The double dual is (-1)^(|A|+|I|) times the identity: a law of the
    # table alone, whatever the system.
    assert sorted(src for _, src in _HODGE.values()) == sorted(SLOTS)
    for slot, (sign, src) in _HODGE.items():
        back_sign, back = _HODGE[src]
        assert back == slot
        assert sign * back_sign == (-1) ** sum(slot_grades(slot))


def test_every_slot_is_read_by_the_relation_table():
    q = _system(9)
    for slot in SLOTS:
        # The relations whose terms hold the slot, plainly or raised.
        reading = {name for name, terms in _QQ_RELATIONS
                   for _, *factors in terms for raised, src, _ in factors
                   if (_HODGE[src][1] if raised else src) == slot}
        mapping = dict(q.items())
        mapping[slot] = mapping[slot] + 1
        rep = check_qq(QSystem(mapping))
        assert not rep.ok, slot
        assert set(rep.failures) <= reading, slot


def test_hodge_preserves_relations():
    rep = check_qq(hodge(_system(21)))
    assert rep.ok


def test_json_round_trip_and_stability():
    q = _system(31)
    data = q.as_json()
    assert set(data["Q"]) == set(SLOTS)
    again = QSystem.from_json(data)
    assert again == q
    assert json.dumps(data, sort_keys=True) == json.dumps(again.as_json(),
                                                          sort_keys=True)


def test_zero_slots_reported():
    q = _system(2)
    mapping = {s: q[s] for s in q}
    mapping["2|1"] = TwistedPoly.zero()
    rep = check_qq(QSystem(mapping))
    assert "2|1" in rep.zero_slots


def test_degree_cap_loop_terminates():
    rng = random.Random(0)
    for _ in range(10):
        _, bs = random_seed_polys(rng.randrange(2 ** 31))
        assert max(p.degree() for p in bs) <= 3
