"""Every solver's parameters, pinned like the CLI's in test_cli.

A new knob on a solver shows up in this file's diff.  Tolerances,
guards and grids that only one value ever reaches are module constants,
not parameters.
"""

from __future__ import annotations

import inspect

from qsc22 import _newton, ads3
from qsc22 import hubbard_bethe as hb

SOLVER_PARAMS = {
    _newton.solve_damped: "(fun, jac, z0, *, tol=1e-13, contract=False)",
    _newton.continue_path: ("(fun_of_t, jac_of_t, t0, t1, z0, *, tol=1e-13, "
                            "collision_groups=())"),
    hb.solve_liebwu: "(lsites, u_coupling, n_charge, m_spin, mode_k, mode_lam)",
    hb.solve_nested: "(spec, seed)",
    ads3.solve_single: "(hcoup, volume, winding=1)",
    ads3.solve_two_particle: "(hcoup, volume, winding=1)",
    ads3.solve_with_auxiliary: "(hcoup, volume, seed)",
}


def _plain_signature(fn) -> str:
    """fn's signature without annotations."""
    sig = inspect.signature(fn)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_solver_parameters_are_pinned():
    assert {fn.__name__: _plain_signature(fn) for fn in SOLVER_PARAMS} == {
        fn.__name__: pinned for fn, pinned in SOLVER_PARAMS.items()}
