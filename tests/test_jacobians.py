"""Closed-form Newton Jacobians against central differences.

Each Jacobian is compared with a central difference of its residual at
random points.  The residuals are logs or phases, so a difference that
straddles a branch cut is brought back by a multiple of 2 pi.  The
negative controls flip the sign of one entry and require the same
comparison to reject it.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import partial

import numpy as np
import pytest

from qsc22 import ads3
from qsc22 import hubbard_bethe as hb
from qsc22.analytic_layer import shell_pairs

POINTS = 24
STEP = 1e-6
REL_TOL = 1e-6


def central_difference(fun, z: np.ndarray) -> np.ndarray:
    cols = []
    for c in range(z.size):
        h = STEP * max(1.0, abs(z[c]))
        dz = np.zeros_like(z)
        dz[c] = h
        diff = fun(z + dz) - fun(z - dz)
        if np.iscomplexobj(diff):
            diff = diff - 2j * math.pi * np.round(diff.imag / (2.0 * math.pi))
        else:
            diff = diff - 2.0 * math.pi * np.round(diff / (2.0 * math.pi))
        cols.append(diff / (2.0 * h))
    return np.array(cols).T


def rel_error(jac: np.ndarray, fun, z: np.ndarray) -> float:
    return float(np.max(np.abs(jac - central_difference(fun, z)))
                 / max(1.0, float(np.max(np.abs(jac)))))


def flip_largest(jac: np.ndarray) -> np.ndarray:
    out = jac.copy()
    idx = np.unravel_index(np.argmax(np.abs(out)), out.shape)
    out[idx] = -out[idx]
    return out


def counting_cases():
    rng = random.Random(11)
    for _ in range(POINTS):
        lsites = rng.randint(2, 6)
        n_charge = rng.randint(1, 4)
        m_spin = rng.randint(0, n_charge)
        coupling = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        z = np.array([rng.uniform(-math.pi, math.pi) for _ in range(n_charge)]
                     + [rng.uniform(-2.0, 2.0) for _ in range(m_spin)])
        fun = partial(hb._counting_residuals, lsites, coupling,
                      list(range(n_charge)), list(range(-m_spin, 0)))
        yield hb._counting_jacobian(lsites, coupling, n_charge, z), fun, z


def _unscaled_counting_jacobian(lsites, coupling, n_charge, z) -> np.ndarray:
    """The counting Jacobian from w = 2u / (u^2 + d^2) and
    v = 4u / (4u^2 + d^2) as written, without rescaling."""
    size = z.size
    jac = np.zeros((size, size))
    ks, lams = z[:n_charge].tolist(), z[n_charge:].tolist()
    for j, k in enumerate(ks):
        jac[j, j] = lsites
        for a, lam in enumerate(lams, n_charge):
            w = 2.0 * coupling / (coupling ** 2 + (math.sin(k) - lam) ** 2)
            jac[j, j] += math.cos(k) * w
            jac[j, a] = -w
            jac[a, j] = -math.cos(k) * w
            jac[a, a] += w
    for a, lam_a in enumerate(lams, n_charge):
        for b, lam_b in enumerate(lams, n_charge):
            if b != a:
                v = 4.0 * coupling / (4.0 * coupling ** 2 + (lam_a - lam_b) ** 2)
                jac[a, b] = v
                jac[a, a] -= v
    return jac


def test_counting_jacobian_has_the_bits_of_the_unscaled_formula():
    # The power-of-two rescaling that keeps u^2 finite changes no
    # rounding, so every solve whose Jacobian fits the float range
    # follows the same iterates as with the formula written plainly.
    rng = random.Random(14)
    for coupling in (1e-8, 0.002, 0.35, 1.0, 2.8, 40.0, 1e100):
        for _ in range(8):
            n_charge, m_spin = rng.randint(1, 4), rng.randint(1, 3)
            z = np.array([rng.uniform(-math.pi, math.pi) for _ in range(n_charge)]
                         + [rng.uniform(-2.0, 2.0) * max(1.0, coupling)
                            for _ in range(m_spin)])
            assert np.array_equal(
                hb._counting_jacobian(5, coupling, n_charge, z),
                _unscaled_counting_jacobian(5, coupling, n_charge, z)), coupling


def unpack(counts, v) -> hb.HubbardRoots:
    a, b = counts[0], counts[0] + counts[1]
    return hb.HubbardRoots(tuple(v[:a]), tuple(v[a:b]), tuple(v[b:]))


def nested_fun(spec, counts, v) -> np.ndarray:
    return hb.nested_residuals(spec, unpack(counts, v))


def nested_cases():
    rng = random.Random(12)
    for _ in range(POINTS):
        hcoup = rng.uniform(0.5, 2.0)
        yplus, yminus = shell_pairs(hcoup, [rng.uniform(-1.0, 1.0) for _ in range(2)])
        spec = hb.HubbardSpec(hcoup, yplus, yminus,
                              twist_x=cmath.exp(0.3j), twist_y=cmath.exp(-0.2j))
        counts = (rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 2))
        z = np.array([complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
                      for _ in range(sum(counts))])
        yield (hb._nested_jacobian(spec, unpack(counts, z)),
               partial(nested_fun, spec, counts), z)


def aux_cases():
    rng = random.Random(13)
    for _ in range(POINTS):
        hcoup = rng.uniform(0.5, 2.0)
        volume = rng.randint(4, 10)
        z = np.array([rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
                      rng.uniform(0.3, 4.0)])
        yield (ads3._aux_jacobian(hcoup, volume, z),
               partial(ads3._aux_residuals, hcoup, volume), z)


CASES = {"counting": counting_cases, "nested": nested_cases, "aux": aux_cases}


@pytest.mark.parametrize("name", sorted(CASES))
def test_jacobian_matches_central_differences(name):
    errors = [rel_error(jac, fun, z) for jac, fun, z in CASES[name]()]
    assert len(errors) >= 20
    assert max(errors) <= REL_TOL


@pytest.mark.parametrize("name", sorted(CASES))
def test_sign_flipped_jacobian_fails_the_comparison(name):
    for jac, fun, z in CASES[name]():
        assert rel_error(flip_largest(jac), fun, z) > 1.0
