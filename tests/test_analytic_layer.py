"""Zhukovsky geometry, source functions, massive towers, truncated products."""

from __future__ import annotations

import math
import random

import pytest

from qsc22.ads3 import AdS3Roots, ShellViolation
from qsc22.analytic_layer import (
    SHELL_TOL,
    MassiveTower,
    OnCut,
    SourceF,
    shell_gap,
    shell_pair,
    shell_pairs,
    truncated_f,
    u_of_x,
    x_of_u,
)
from qsc22.hubbard_bethe import HubbardSpec


def _off_cut_points(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [complex(rng.uniform(-3.0, 3.0), 0.21 + rng.uniform(0.0, 0.55))
            for _ in range(count)]


def _sources() -> list:
    """Root-data sources with one and two pairs at two couplings."""
    out = []
    for hcoup, vs in ((1.0, [0.7, -0.7]), (0.6, [1.4])):
        out.append(SourceF(hcoup, *shell_pairs(hcoup, vs)))
    return out


def test_zhukovsky_inverse_on_both_sheets():
    # The inner-sheet point is 1/x of the outer one and maps to the same u.
    for u in _off_cut_points(1, 25):
        x = x_of_u(u, 1.3)
        assert abs(x) > 1.0 and abs(1.0 / x) < 1.0
        for point in (x, 1.0 / x):
            assert abs(u_of_x(point, 1.3) - u) < 1e-12


def test_open_cut_is_rejected():
    for u in (0.3, -0.99, 0.0):
        with pytest.raises(OnCut):
            x_of_u(u, 1.0)
    # The branch points and the real line outside the cut are reachable.
    assert x_of_u(1.0, 1.0) == 1.0
    assert abs(x_of_u(-2.5, 1.0)) > 1.0


def test_shell_pair_constraint():
    for h, v in ((1.0, 0.7), (0.5, 1.3), (2.0, -0.4)):
        yp, ym = shell_pair(h, v)
        assert abs(yp + 1.0 / yp - ym - 1.0 / ym - 2j / h) < 1e-12
        assert abs(yp) > 1.0 and abs(ym) > 1.0


def test_source_unimodularity():
    points = _off_cut_points(7, 250)
    for source in _sources():
        for u in points:
            x = x_of_u(u, source.hcoup)
            assert abs(source.eval_x(x) * source.eval_x(1.0 / x) - 1.0) < 1e-12


def test_source_sheet_swap_inverts():
    source = _sources()[0]
    u = 0.8 + 0.6j
    assert abs(source(u) * source.eval_x(1.0 / x_of_u(u, 1.0)) - 1.0) < 1e-12


def test_source_without_pairs_is_one():
    source = SourceF(1.0)
    for u in _off_cut_points(17, 5):
        assert source(u) == 1.0
        assert source.eval_x(1.0 / x_of_u(u, 1.0)) == 1.0


def test_ext_source_validation():
    with pytest.raises(ValueError):
        SourceF(1.0, [0.5 + 0.5j], [2.0 - 1.0j])
    with pytest.raises(ValueError):
        SourceF(1.0, [2.0 + 2.0j], [2.0 - 1.0j])
    yplus, yminus = shell_pair(1.0, 0.7)
    with pytest.raises(ValueError):
        SourceF(1.0, [yplus, yplus], [yminus])


def test_shell_validators_share_one_bound():
    yplus, yminus = shell_pair(1.0, 0.7)
    assert shell_gap(1.0, yplus, yminus) < 1e-15
    SourceF(1.0, [yplus], [yminus])
    HubbardSpec(1.0, (yplus,), (yminus,))
    AdS3Roots(1.0, 2, (yplus,), (yminus,))
    off = yminus + 5e-9
    assert shell_gap(1.0, yplus, off) == pytest.approx(5.65e-9, abs=1e-11)
    assert shell_gap(1.0, yplus, off) > SHELL_TOL
    with pytest.raises(ValueError):
        SourceF(1.0, [yplus], [off])
    with pytest.raises(ValueError):
        HubbardSpec(1.0, (yplus,), (off,))
    with pytest.raises(ShellViolation):
        AdS3Roots(1.0, 2, (yplus,), (off,))


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                 complex(math.inf, 0.0), complex(-2.0, -math.inf)])
def test_non_finite_roots_are_rejected(bad):
    # NaN compares false both ways, so neither |y| > 1 nor the shell
    # bound can catch it; the roots must be tested for finiteness.
    yplus, yminus = shell_pair(1.0, 0.7)
    for plus, minus in ((bad, bad), (bad, yminus), (yplus, bad)):
        with pytest.raises(ValueError, match="finite"):
            SourceF(1.0, [plus], [minus])
        with pytest.raises(ValueError, match="finite"):
            HubbardSpec(1.0, (plus,), (minus,))
        with pytest.raises(ValueError, match="finite"):
            AdS3Roots(1.0, 2, (plus,), (minus,))
    for name in ("xbp", "y1", "y3", "y1b", "y3b"):
        with pytest.raises(ValueError, match="finite"):
            AdS3Roots(1.0, 2, **{name: (bad,)})


def test_a_zero_root_is_off_the_shell():
    yplus, yminus = shell_pair(1.0, 0.7)
    assert shell_gap(1.0, 0j, yminus) == math.inf
    assert shell_gap(1.0, yplus, 0j) == math.inf
    with pytest.raises(ValueError, match="shift constraint"):
        HubbardSpec(1.0, (0j,), (yminus,))
    with pytest.raises(ValueError, match="shift constraint"):
        HubbardSpec(1.0, (yplus,), (0j,))


@pytest.mark.parametrize("hcoup", [math.nan, math.inf, 0.0, -1.0])
def test_coupling_must_be_finite_and_positive(hcoup):
    # One rule for every type that carries a coupling, NaN included.
    with pytest.raises(ValueError, match="finite and positive"):
        x_of_u(0.3 + 0.7j, hcoup)
    with pytest.raises(ValueError, match="finite and positive"):
        SourceF(hcoup)
    with pytest.raises(ValueError, match="finite and positive"):
        HubbardSpec(hcoup)
    with pytest.raises(ValueError, match="finite and positive"):
        AdS3Roots(hcoup, 2)


@pytest.mark.parametrize("volume", [0, -3])
def test_ads3_volume_must_be_at_least_one(volume):
    with pytest.raises(ValueError, match="volume"):
        AdS3Roots(1.0, volume)


def _qq_gap(tower: MassiveTower) -> float:
    """Worst |(-1)^m B_+-(x) R_+-(x) - Q(u(x) +- i/2)| over both branches."""
    gaps = []
    for x in (1.7 + 0.4j, -2.2 + 0.9j):
        for branch in (+1, -1):
            lhs = (-1) ** len(tower.plus) * tower.b(branch, x) * tower.r(branch, x)
            gaps.append(abs(lhs - tower.qq(u_of_x(x, tower.hcoup) + 0.5j * branch)))
    return max(gaps)


def test_two_branch_factors_multiply_to_qq():
    yplus, yminus = shell_pairs(1.0, [0.7, -0.7])
    assert _qq_gap(MassiveTower(1.0, yplus, yminus)) < 1e-12
    # With plus and minus swapped the plus branch lands a shift of i off.
    assert _qq_gap(MassiveTower(1.0, yminus, yplus)) > 1.0


def test_truncation_telescopes():
    for source in _sources():
        for n in (4, 16):
            for u in _off_cut_points(3, 40):
                lhs = truncated_f(source, n, u) / truncated_f(source, n, u + 1j)
                rhs = source(u) / source(u + 1j * (n + 1))
                assert abs(lhs / rhs - 1.0) < 1e-12
