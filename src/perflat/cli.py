"""Command line front end: spaces, payoffs and measures in, artifacts out.

Every randomized command takes an explicit seed (default 0) echoed into the
output metadata, so an artifact can be reproduced byte for byte from its own
config block; nothing draws hidden entropy.  Numbers serialize at full
double precision with infinities as the strings "inf"/"-inf".  Exit codes:
0 on success, 1 when validation or an asserted check fails (a structured
report goes to stdout), 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .dividends import DividendProcess, check_lift_axioms, lift_evaluate
from .dynamics import DynamicMeasure, check_time_consistency, verify_witness
from .lattice import (FilteredSpace, XVar, binomial_tree, coin2, dump_json,
                      jsonable, num_to_json)
from .measures import (GainLossRatio, check_axioms, check_scale_invariance,
                       evaluate, lpm_ratio, measure_from_json)
from .risk_family import (entropic_closed_form, glr_dual_risk, induce_risk,
                          induced_family, reconstruct, risk_curve)


class CliError(Exception):
    """Validation failure carrying a structured report (exit code 1)."""

    def __init__(self, payload: dict):
        super().__init__(payload.get("message", payload.get("error", "")))
        self.payload = payload


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError({"error": "file not found", "path": str(path)})
    except json.JSONDecodeError as e:
        raise CliError({"error": "malformed JSON", "path": str(path),
                        "line": e.lineno, "column": e.colno, "message": e.msg})


# input flag -> (what its file holds, parser of the file's JSON on the space)
_INPUTS = {"measure": ("measure", measure_from_json),
           "var": ("variable", XVar.from_json),
           "dividend": ("dividend stream", DividendProcess.from_json)}


def _inputs(args, *names) -> tuple:
    """The space of --space, then the file of each named flag parsed on that space.

    A parser's ValueError becomes an "invalid <what>" report naming the file.  So does
    the KeyError, TypeError or AttributeError of a file that lacks an entry or holds
    the wrong JSON type; the report then adds the error's type, since a KeyError's
    message is only the missing key.
    """
    def load(path, what, parse, *extra, **kwargs):
        try:
            return parse(_load_json(path), *extra, **kwargs)
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            payload = {"error": f"invalid {what}", "path": str(path), "message": str(e)}
            if not isinstance(e, ValueError):
                payload["type"] = type(e).__name__
            raise CliError(payload)

    space = load(args.space, "space", FilteredSpace.from_json, name=Path(args.space).stem)
    return (space, *(load(getattr(args, n), *_INPUTS[n], space) for n in names))


def _check_tols(args) -> None:
    for name in ("tol_c", "tol_z"):
        if hasattr(args, name) and getattr(args, name) <= 0.0:
            raise CliError({"error": "tolerance misconfiguration",
                            "message": f"{name.replace('_', '-')} must be positive"})


def _config(args, **extra) -> dict:
    out = {"command": args.command}
    for name in ("space", "measure", "var", "dividend", "t", "z", "seed",
                 "trials", "tol_c", "tol_z"):
        if hasattr(args, name) and getattr(args, name) is not None:
            out[name] = getattr(args, name)
    out.update(extra)
    return out


def _emit(obj: dict, out: str | None) -> None:
    if out:
        dump_json(jsonable(obj), out)


def _print_stage_values(space: FilteredSpace, t: int, values) -> None:
    if len(values) == 1:
        print(f"{values[0]:g}")
    else:
        for k, v in enumerate(values):
            print(f"{space.atom_id(t, k)} {v:g}")


def _values_json(space: FilteredSpace, t: int, values) -> dict:
    return {space.atom_id(t, k): num_to_json(v) for k, v in enumerate(values)}


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate_space(args) -> int:
    space = _inputs(args)[0]
    print(f"ok: {space.n_leaves} leaves, stages {list(space.times)}")
    _emit({"config": _config(args), "ok": True, "leaves": space.n_leaves,
           "stages": list(space.times),
           "atoms": {str(t): space.n_atoms(t) for t in space.times}}, args.out)
    return 0


def cmd_evaluate(args) -> int:
    space, m, x = _inputs(args, "measure", "var")
    try:
        v = evaluate(m, args.t, x)
    except (ValueError, OverflowError) as e:
        raise CliError({"error": "evaluation failed", "message": str(e)})
    _print_stage_values(space, args.t, v.values)
    _emit({"config": _config(args), "stage": args.t,
           "values": _values_json(space, args.t, v.values)}, args.out)
    return 0


def cmd_induce(args) -> int:
    _check_tols(args)
    space, m, x = _inputs(args, "measure", "var")
    try:
        rp = induce_risk(m, args.t, args.z, x, tol=args.tol_c)
    except (ValueError, RuntimeError) as e:
        raise CliError({"error": "induction failed", "message": str(e)})
    # display at the resolution the bisection actually has
    shown = np.where(rp.near_zero, 0.0, rp.values.values)
    _print_stage_values(space, args.t, shown)
    _emit({"config": _config(args), **rp.to_json(),
           "near_zero": [bool(b) for b in rp.near_zero]}, args.out)
    return 0


def cmd_curve(args) -> int:
    _check_tols(args)
    space, m, x = _inputs(args, "measure", "var")
    if args.z_list:
        grid = [float(s) for s in args.z_list.split(",") if s.strip()]
    elif args.z_min is not None and args.z_max is not None:
        grid = list(np.linspace(args.z_min, args.z_max, args.z_steps))
    else:
        raise CliError({"error": "empty grid",
                        "message": "pass --z-list or both --z-min and --z-max"})
    if not grid:
        raise CliError({"error": "empty grid", "message": "no levels given"})
    try:
        curve = risk_curve(m, args.t, x, grid, tol=args.tol_c,
                           check_limit=not args.no_limit_check)
    except (ValueError, RuntimeError, AssertionError) as e:
        raise CliError({"error": "curve failed", "message": str(e)})
    if args.format == "csv":
        text = curve.to_csv()
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text, end="")
    else:
        artifact = {"config": _config(args, grid=[num_to_json(z) for z in grid]),
                    **curve.to_json()}
        if args.out:
            _emit(artifact, args.out)
        else:
            print(dump_json(jsonable(artifact)))
    if curve.limit_note:
        print(f"note: {curve.limit_note}", file=sys.stderr)
    return 0


def cmd_reconstruct(args) -> int:
    _check_tols(args)
    space, m, x = _inputs(args, "measure", "var")
    fam = induced_family(m, tol=args.tol_c)
    back = reconstruct(fam, args.t, x, tol_z=args.tol_z, tol_c=args.tol_c)
    direct = evaluate(m, args.t, x)
    diff = np.abs(back.values - direct.values)
    both_inf = np.isinf(back.values) & np.isinf(direct.values)
    gap = float(np.max(np.where(both_inf, 0.0, diff)))
    _print_stage_values(space, args.t, back.values)
    print(f"max gap to direct evaluation: {gap:.3g}")
    _emit({"config": _config(args), "stage": args.t,
           "reconstructed": _values_json(space, args.t, back.values),
           "direct": _values_json(space, args.t, direct.values),
           "max_gap": num_to_json(gap)}, args.out)
    return 0


def cmd_dual(args) -> int:
    _check_tols(args)
    space, x = _inputs(args, "var")
    try:
        dual = glr_dual_risk(args.t, args.z, x)
    except ValueError as e:
        raise CliError({"error": "dual solve failed", "message": str(e)})
    primal = induce_risk(GainLossRatio(), args.t, args.z, x, tol=args.tol_c)
    gap = float(np.max(np.abs(dual.values.values - primal.values.values)))
    shown = np.where(dual.near_zero, 0.0, dual.values.values)
    _print_stage_values(space, args.t, shown)
    print(f"max gap to bisection: {gap:.3g}")
    _emit({"config": _config(args),
           "dual": _values_json(space, args.t, dual.values.values),
           "bisection": _values_json(space, args.t, primal.values.values),
           "max_gap": num_to_json(gap)}, args.out)
    return 0


def cmd_check_axioms(args) -> int:
    space, m = _inputs(args, "measure")
    rep = check_axioms(m, space, args.t, trials=args.trials, rng_seed=args.seed)
    for line in rep.summary_lines():
        print(line)
    scale_rep = None
    if m.scale_invariant or args.scale:
        scale_rep = check_scale_invariance(m, space, args.t, trials=args.trials,
                                           rng_seed=args.seed)
        for line in scale_rep.summary_lines():
            print(line)
    _emit({"config": _config(args), "axioms": rep.to_json(),
           "scale_invariance": scale_rep.to_json() if scale_rep else None},
          args.out)
    ok = rep.passed and (scale_rep is None or not m.scale_invariant
                         or scale_rep.passed)
    return 0 if ok else 1


def cmd_check_consistency(args) -> int:
    _check_tols(args)
    space, m = _inputs(args, "measure")
    d = DynamicMeasure(m)
    grid = None
    if args.z_grid:
        grid = [float(s) for s in args.z_grid.split(",") if s.strip()]
    try:
        rep = check_time_consistency(d, space, z_grid=grid, trials=args.trials,
                                     rng_seed=args.seed, tol=args.tol_c)
    except ValueError as e:
        raise CliError({"error": "consistency check failed", "message": str(e)})
    for line in rep.summary_lines():
        print(line)
    _emit({"config": _config(args), **rep.to_json()}, args.out)
    if rep.witness is not None:
        wpath = args.witness_out or "witness.json"
        dump_json(rep.witness["x"], wpath)
        print(f"witness payoff written to {wpath}")
    # a counterexample is a finding, not a failure; only the internal
    # cross-validation of the three readings gates the exit code
    return 0 if rep.result("criteria_agreement").passed else 1


def cmd_lift(args) -> int:
    space, m, dp = _inputs(args, "measure", "dividend")
    v = lift_evaluate(m, args.t, dp)
    _print_stage_values(space, args.t, v.values)
    artifact = {"config": _config(args), "stage": args.t,
                "values": _values_json(space, args.t, v.values)}
    code = 0
    if args.check:
        rep = check_lift_axioms(m, space, trials=args.check, rng_seed=args.seed)
        for line in rep.summary_lines():
            print(line)
        artifact["lift_axioms"] = rep.to_json()
        code = 0 if rep.passed else 1
    _emit(artifact, args.out)
    return code


def cmd_paper_demo(args) -> int:
    fixtures = resources.files("perflat").joinpath("fixtures")
    pinned = json.loads(fixtures.joinpath("paper_demo.json").read_text())
    space = coin2()
    glr = GainLossRatio()
    x31 = XVar(space, [3.0, -1.0])
    x11 = XVar(space, [1.0, -1.0])
    zero = XVar.constant(space, 0.0)
    got = {
        "glr_3_-1": float(evaluate(glr, 0, x31).values[0]),
        "glr_at_0": float(evaluate(glr, 0, zero).values[0]),
        "glr_at_1_over_10": float(evaluate(glr, 0,
                                           XVar.constant(space, 0.1)).values[0]),
        "induced_glr_risk_z2": float(induce_risk(glr, 0, 2.0, x31)
                                     .values.values[0]),
        "dual_1_-1_z1": float(glr_dual_risk(0, 1.0, x11).values.values[0]),
        "entropic_lncosh1": float(entropic_closed_form(1.0, 0, 0.0, x11)
                                  .values.values[0]),
    }
    for key, z in (("entropic_zero_risk_z0", 0.0),
                   ("entropic_zero_risk_zhalf", 0.5),
                   ("entropic_zero_risk_z1me", 1.0 - float(np.exp(-1.0)))):
        got[key] = float(entropic_closed_form(1.0, 0, z, zero).values.values[0])

    failures = 0
    for key in sorted(pinned["values"]):
        want = float(pinned["values"][key]) if not isinstance(
            pinned["values"][key], str) else float("inf")
        have = got[key]
        ok = (have == want) if np.isinf(want) else abs(have - want) <= 1e-9
        print(f"[{'PASS' if ok else 'FAIL'}] {key}: {have:g} (pinned {want:g})")
        failures += 0 if ok else 1

    witness = json.loads(fixtures.joinpath("lpm_witness.json").read_text())
    tree = binomial_tree(2)
    d = DynamicMeasure(lpm_ratio(2.0))
    ok, detail = verify_witness(d, tree, witness)
    margin_ok = ok and witness["margin"] >= 1e-3
    print(f"[{'PASS' if margin_ok else 'FAIL'}] lpm_witness: "
          f"margin {witness['margin']:.4g}, re-verified={ok}")
    failures += 0 if margin_ok else 1

    _emit({"config": _config(args), "values": {k: num_to_json(v)
                                               for k, v in sorted(got.items())},
           "lpm_witness_ok": bool(margin_ok)}, args.out)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(p, *, measure=True, var=False, stage=False, level=False,
                randomized=False, tol_c=False):
    p.add_argument("--space", required=True, help="space JSON file")
    if measure:
        p.add_argument("--measure", required=True, help="measure JSON file")
    if var:
        p.add_argument("--var", required=True, help="payoff JSON file")
    if stage:
        p.add_argument("--t", type=int, required=True, help="evaluation stage")
    if level:
        p.add_argument("--z", type=float, required=True, help="level")
    if randomized:
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
    if tol_c:
        p.add_argument("--tol-c", dest="tol_c", type=float, default=1e-10,
                       help="bisection tolerance for induced risks")
    p.add_argument("--out", help="write a JSON artifact here")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perflat",
        description="conditional performance measures on scenario trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-space", help="check a space file's invariants")
    p.add_argument("space", help="space JSON file")
    p.add_argument("--out", help="write a JSON artifact here")
    p.set_defaults(fn=cmd_validate_space)

    p = sub.add_parser("evaluate", help="measure value of a payoff at a stage")
    _add_common(p, var=True, stage=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("induce", help="induced risk at a level")
    _add_common(p, var=True, stage=True, level=True, tol_c=True)
    p.set_defaults(fn=cmd_induce)

    p = sub.add_parser("curve", help="induced risk across a grid of levels")
    _add_common(p, var=True, stage=True, tol_c=True)
    p.add_argument("--z-min", dest="z_min", type=float)
    p.add_argument("--z-max", dest="z_max", type=float)
    p.add_argument("--z-steps", dest="z_steps", type=int, default=50)
    p.add_argument("--z-list", dest="z_list",
                   help="comma-separated levels, overrides the range flags")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--no-limit-check", action="store_true",
                   help="skip the divergence check at the lower bound")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("reconstruct",
                       help="recover measure values from the induced risks")
    _add_common(p, var=True, stage=True, tol_c=True)
    p.add_argument("--tol-z", dest="tol_z", type=float, default=1e-8,
                   help="level tolerance for reconstruction")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("dual", help="gain-loss risk through the dual closed form")
    _add_common(p, measure=False, var=True, stage=True, level=True, tol_c=True)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("check-axioms", help="property tests for a measure")
    _add_common(p, stage=True, randomized=True)
    p.add_argument("--scale", action="store_true",
                   help="also run the scale-invariance checks")
    p.set_defaults(fn=cmd_check_axioms)

    p = sub.add_parser("check-consistency",
                       help="time-consistency verdict for a measure family")
    _add_common(p, randomized=True, tol_c=True)
    p.add_argument("--z-grid", dest="z_grid",
                   help="comma-separated levels (default: spread over the "
                        "measure's interval)")
    p.add_argument("--witness-out", dest="witness_out",
                   help="where to write the witness payoff (default "
                        "witness.json)")
    p.set_defaults(fn=cmd_check_consistency)

    p = sub.add_parser("lift", help="value of a dividend stream")
    _add_common(p, stage=True)
    p.add_argument("--dividend", required=True, help="stream JSON file")
    p.add_argument("--check", type=int, metavar="TRIALS",
                   help="also property-test the lift with this many trials")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("paper-demo",
                       help="reproduce the built-in worked examples and "
                            "compare against the pinned fixtures")
    p.add_argument("--out", help="write a JSON artifact here")
    p.set_defaults(fn=cmd_paper_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except CliError as e:
        print(dump_json(jsonable({"error": e.payload})))
        return 1
    except (ValueError, OSError, KeyError) as e:
        print(dump_json({"error": {"type": type(e).__name__, "message": str(e)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
