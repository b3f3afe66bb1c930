"""Command-line surface for reproducible runs with JSON output.

Every subcommand prints canonical JSON (sorted keys, fixed separators)
so identical inputs and rng seeds give byte-identical output.  Complex
numbers are emitted as [re, im] pairs and exact rationals as "num/den"
strings.  Exit codes: 0 pass, 1 numeric failure, 2 input error,
3 oracle mismatch.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import click
import numpy as np
from click.core import ParameterSource

from . import __version__, acceptance, ads3, ed_oracle
from . import hubbard_bethe as hb
from . import qsystem, ty_system
from ._newton import NoConvergence
from .analytic_layer import json_number
from .exact_poly import GaussRat, TwistedPoly


def _cj(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _emit(obj) -> None:
    click.echo(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read JSON from {path}: {exc}")


def _complex_pair(value) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise click.UsageError(f"expected [re, im], got {value!r}")
    return complex(json_number(value[0]), json_number(value[1]))


def _complex_pairs(values) -> list:
    return [_complex_pair(v) for v in values]


def _parse_gauss(text: str) -> GaussRat:
    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError(f"expected 're,im' rationals, got {text!r}")
    try:
        return GaussRat(Fraction(parts[0].strip()), Fraction(parts[1].strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"bad rational in {text!r}: {exc}")


@click.group()
@click.version_option(__version__, prog_name="qsc22")
def main() -> None:
    """Exact Q-systems, Hirota checks, Bethe solvers, and oracles."""


# --------------------------------------------------------------------------
# Q-system commands


def _seed_polys_from_file(data: dict):
    try:
        b0 = TwistedPoly.from_json(data["B0"])
        bs = [TwistedPoly.from_json(p) for p in data["B"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad seed file: {exc}")
    if len(bs) != 4:
        raise click.UsageError("seed file must list exactly four odd seeds")
    return b0, bs


def _system(seed_path) -> qsystem.QSystem:
    """The Q-system of a --seed file: a B-seed or a full Q-system."""
    data = _load_json(seed_path)
    try:
        if "Q" in data:
            return qsystem.QSystem.from_json(data)
        return qsystem.generate_from_seed(*_seed_polys_from_file(data))
    except click.UsageError:
        raise
    except Exception as exc:
        raise click.UsageError(f"cannot build system: {exc}")


def _emit_report(report) -> None:
    """Emit a check report and exit 1 unless it is ok."""
    _emit(report.as_json())
    sys.exit(0 if report.ok else 1)


@main.command("check-qq")
@click.option("--seed", "seed_path", type=click.Path(), required=True,
              help="JSON file with a B-seed or a full Q-system.")
def cmd_check_qq(seed_path) -> None:
    """Verify the full exact relation inventory of a Q-system."""
    _emit_report(qsystem.check_qq(_system(seed_path)))


@main.command("gen-qsystem")
@click.option("--rng-seed", type=int, required=True, help="Generator seed.")
@click.option("--out", type=click.Path(), default=None,
              help="Write to this path instead of stdout.")
@click.option("--full", is_flag=True,
              help="Include the sixteen generated components, QQ-checked.")
def cmd_gen_qsystem(rng_seed, out, full) -> None:
    """Emit a random admissible B-seed as JSON."""
    b0, bs = qsystem.random_seed_polys(rng_seed)
    data = {
        "rng_seed": rng_seed,
        "B0": b0.as_json(),
        "B": [p.as_json() for p in bs],
    }
    if full:
        q = qsystem.generate_from_seed(b0, bs)
        report = qsystem.check_qq(q)
        if not report.ok:
            _emit({"rng_seed": rng_seed, **report.as_json()})
            sys.exit(1)
        data.update(q.as_json())
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    if out is None:
        click.echo(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise click.UsageError(f"cannot write {out}: {exc}")


@main.command("check-hirota")
@click.option("--seed", "seed_path", type=click.Path(), required=True,
              help="JSON file with a B-seed or a full Q-system.")
@click.option("--window", default="4,4", show_default=True,
              help="Hirota window 'amax,smax'.")
def cmd_check_hirota(seed_path, window) -> None:
    """Check the bilinear lattice equation on Wronskian T-functions."""
    try:
        amax, smax = (int(part) for part in window.split(","))
    except ValueError:
        raise click.UsageError(f"bad window {window!r}, expected 'amax,smax'")
    if min(amax, smax) < 0 or max(amax, smax) == 0:
        raise click.UsageError(f"window {window!r} checks no cell")
    _emit_report(ty_system.check_hirota(_system(seed_path), (amax, smax)))


@main.command("character")
@click.option("--sx", required=True, help="Half-twist as 're,im' rationals.")
@click.option("--sy", required=True, help="Half-twist as 're,im' rationals.")
def cmd_character(sx, sy) -> None:
    """Build a constant twist solution and verify its exact identities."""
    try:
        report = acceptance.character_report(_parse_gauss(sx), _parse_gauss(sy))
    except ValueError as exc:
        raise click.UsageError(f"degenerate twist: {exc}")
    _emit(report)
    sys.exit(0 if report["ok"] else 1)


# --------------------------------------------------------------------------
# Bethe solver commands


@main.command("solve-nested")
@click.option("--input", "input_path", type=click.Path(), required=True,
              help="JSON with h, yplus, yminus, twists and seed.")
def cmd_solve_nested(input_path) -> None:
    """Solve the three-node nested equations from a caller seed."""
    data = _load_json(input_path)
    try:
        spec = hb.HubbardSpec(
            json_number(data["h"]),
            _complex_pairs(data.get("yplus", [])),
            _complex_pairs(data.get("yminus", [])),
            twist_x=_complex_pair(data.get("twist_x", [1.0, 0.0])),
            twist_y=_complex_pair(data.get("twist_y", [1.0, 0.0])),
        )
        if "Mtheta" in data and data["Mtheta"] != len(spec.yplus):
            raise ValueError(f"Mtheta {data['Mtheta']} differs from the "
                             f"{len(spec.yplus)} yplus/yminus pairs")
        seed_data = data["seed"]
        if not isinstance(seed_data, dict):
            raise ValueError(f"seed must be an object of root lists, got {seed_data!r}")
        seed = hb.HubbardRoots(
            tuple(_complex_pairs(seed_data.get("x1e", []))),
            tuple(_complex_pairs(seed_data.get("u11", []))),
            tuple(_complex_pairs(seed_data.get("x112", []))),
        )
        sizes = [len(seed.x1e), len(seed.u11), len(seed.x112)]
        if "counts" in data and list(data["counts"]) != sizes:
            raise ValueError(f"counts {data['counts']} differ from the seed "
                             f"list lengths {sizes}")
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad nested input: {exc}")

    try:
        roots = hb.solve_nested(spec, seed)
    except hb.SingularDenominator as exc:
        raise click.UsageError(f"seed on a pole of the equations: {exc}")
    except NoConvergence as exc:
        _emit({"ok": False, "error": str(exc)})
        sys.exit(1)
    res = hb.nested_residuals(spec, roots)
    residual = float(np.max(np.abs(res))) if res.size else 0.0
    _emit({
        "ok": True,
        "roots": {
            "x1e": [_cj(z) for z in roots.x1e],
            "u11": [_cj(z) for z in roots.u11],
            "x112": [_cj(z) for z in roots.x112],
        },
        "residual": residual,
    })


def _liebwu_payload(lsites, coupling, roots) -> dict:
    energy, momentum = hb.energy_momentum(lsites, coupling, roots)
    residual = 0.0
    if roots.k or roots.lam:
        residual = float(np.max(np.abs(
            hb.liebwu_residuals(lsites, coupling, roots))))
    return {
        "k": [_cj(z) for z in roots.k],
        "lambda": [_cj(z) for z in roots.lam],
        "E": energy if isinstance(energy, float) else _cj(energy),
        "P": float(momentum),
        "residual": residual,
    }


@main.command("solve-liebwu")
@click.option("--L", "lsites", type=int, required=True, help="Chain length.")
@click.option("--u", "coupling", type=float, required=True, help="Coupling.")
@click.option("--N", "n_charge", type=int, required=True, help="Fermion count.")
@click.option("--M", "m_spin", type=int, required=True, help="Down-spin count.")
@click.option("--I", "mode_k", type=int, multiple=True,
              help="Momentum mode numbers (repeat N times).")
@click.option("--J", "mode_lam", type=int, multiple=True,
              help="Spin mode numbers in [M - N, -1] (repeat M times).")
def cmd_solve_liebwu(lsites, coupling, n_charge, m_spin, mode_k, mode_lam) -> None:
    """Solve the Lieb-Wu equations for one set of mode numbers."""
    try:
        roots = hb.solve_liebwu(lsites, coupling, n_charge, m_spin,
                                list(mode_k), list(mode_lam))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except NoConvergence as exc:
        _emit({"ok": False, "error": str(exc)})
        sys.exit(1)

    _emit({"ok": True, **_liebwu_payload(lsites, coupling, roots)})


@main.command("ed")
@click.option("--L", "lsites", type=int, required=True, help="Chain length.")
@click.option("--u", "coupling", type=float, required=True, help="Coupling.")
@click.option("--nup", type=int, required=True, help="Up-spin count.")
@click.option("--ndown", type=int, required=True, help="Down-spin count.")
def cmd_ed(lsites, coupling, nup, ndown) -> None:
    """Diagonalize one charge sector of the lattice Hamiltonian."""
    try:
        ham = ed_oracle.build_hamiltonian(lsites, coupling, (nup, ndown))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit({
        "L": lsites,
        "u": coupling,
        "sector": [nup, ndown],
        "eigenvalues": [float(e) for e in ed_oracle.spectrum(ham)],
    })


@main.command("compare")
@click.option("--L", "lsites", type=int, required=True)
@click.option("--u", "coupling", type=float, required=True)
@click.option("--N", "n_charge", type=int, required=True)
@click.option("--M", "m_spin", type=int, required=True)
def cmd_compare(lsites, coupling, n_charge, m_spin) -> None:
    """Solve every admissible mode set of a sector and match the oracle."""
    if not 0 <= m_spin <= n_charge <= lsites:
        raise click.UsageError("need 0 <= M <= N <= L")
    try:
        outcomes, match = acceptance.match_sector(
            lsites, coupling, n_charge, m_spin, acceptance.LIEBWU_BOUND)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = [{"I": list(mk), "J": list(ml), "skipped": error}
            for mk, ml, _, error in outcomes]
    solved = [row for row in rows if row["skipped"] is None]
    for row, energy, gap in zip(solved, match.energies, match.gaps):
        del row["skipped"]
        row.update(E=energy, gap=gap)
    _emit({
        "L": lsites, "u": coupling, "N": n_charge, "M": m_spin,
        "solutions": len(solved),
        "candidates": len(rows),
        "max_gap": match.max_gap,
        "matches": rows,
        "ok": bool(solved) and match.passed,
    })
    if not solved and n_charge > 0:
        sys.exit(1)
    if not match.passed:
        sys.exit(3)


# --------------------------------------------------------------------------
# AdS3 commands


def _ads3_state(hcoup, volume, mode, winding):
    if mode == "single":
        return ads3.solve_single(hcoup, volume, winding)
    if mode == "two":
        return ads3.solve_two_particle(hcoup, volume, winding)
    return ads3.solve_with_auxiliary(hcoup, volume, (0.4, 1.2))


@main.command("ads3-residuals")
@click.option("--h", "hcoup", type=float, default=1.0, show_default=True)
@click.option("--L", "volume", type=int, default=8, show_default=True)
@click.option("--mode", type=click.Choice(["single", "two", "aux"]),
              default="two", show_default=True)
@click.option("--winding", type=int, default=1, show_default=True)
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="Root data JSON instead of solving.")
@click.pass_context
def cmd_ads3_residuals(ctx, hcoup, volume, mode, winding, input_path) -> None:
    """Bethe residuals of massive root data, solved or supplied."""
    if input_path is not None:
        given = [param.opts[0] for param in ctx.command.params
                 if param.name != "input_path" and ctx.get_parameter_source(
                     param.name) is ParameterSource.COMMANDLINE]
        if given:
            raise click.UsageError(f"--input takes no {', '.join(given)}: "
                                   f"the file holds the state")
        try:
            state = ads3.AdS3Roots.from_json(_load_json(input_path))
        except (KeyError, TypeError, ValueError, ads3.ShellViolation) as exc:
            raise click.UsageError(f"bad root data: {exc}")
    else:
        if mode == "aux" and winding != 1:
            raise click.UsageError("--mode aux takes no --winding")
        try:
            state = _ads3_state(hcoup, volume, mode, winding)
        except NoConvergence as exc:
            _emit({"ok": False, "error": str(exc)})
            sys.exit(1)
        except ValueError as exc:
            raise click.UsageError(str(exc))
    try:
        res = ads3.aba_residuals(state)
    except hb.SingularDenominator as exc:
        raise click.UsageError(f"root data on a pole of the equations: {exc}")
    worst = float(np.max(np.abs(res))) if res.size else 0.0
    ok = acceptance.BatteryResult(1, measured={"max_residual": worst},
                                  bound={"max_residual": acceptance.ADS3_BOUND}).ok
    _emit({
        "ok": ok,
        "roots": state.as_json(),
        "residuals": [_cj(z) for z in res],
        "max_residual": worst,
        "momentum_defect": _cj(ads3.momentum_defect(state)),
    })
    sys.exit(0 if ok else 1)


# --------------------------------------------------------------------------
# Acceptance suite


@main.command("suite")
@click.option("--only", multiple=True,
              help="Run only batteries whose name contains this substring.")
@click.option("--rng-seed", type=int, default=7, show_default=True)
def cmd_suite(only, rng_seed) -> None:
    """Run the acceptance battery; exit 0 only if every check passes."""
    selected = [(name, fn) for name, fn in acceptance.BATTERIES
                if not only or any(sub in name for sub in only)]
    if not selected:
        raise click.UsageError(f"no battery matches {list(only)}")
    results = []
    first_fail = None
    for name, fn in selected:
        start = time.monotonic()
        result = fn(rng_seed)
        elapsed = time.monotonic() - start
        margin = "exact" if result.margin is None else f"margin {result.margin:.3g}"
        click.echo(f"[{'PASS' if result.ok else 'FAIL'}] {name} "
                   f"({elapsed:.1f}s, {margin})", err=True)
        results.append({"name": name, **result.as_json(),
                        "seconds": round(elapsed, 3)})
        if not result.ok and first_fail is None:
            first_fail = name
    _emit({"ok": first_fail is None, "first_failure": first_fail,
           "results": results})
    sys.exit(0 if first_fail is None else 1)


if __name__ == "__main__":
    main()
