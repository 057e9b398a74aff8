"""Command-line surface over the library.  `OPERATION_MAP` lists the library
operations the subcommands run, each with the one subcommand that exposes it.

A subcommand returns its result with exit code 0 (success, and identity
verified where applicable) or 3 (verified inequality), and refuses input by
raising; `main` alone maps the exception type to a code: 5 for an unknown
preset, 4 for an unsupported factor shape, 2 for any other `ValueError` (a
usage or parse error).  Output is a deterministic envelope (command echo,
input echo, result payload, library version); timing is attached only on
request so that repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from math import lcm

from . import __version__
from .bijection import path_to_rc, rc_to_path
from .combinat import Composition
from .crystals import (Path, enumerate_paths, intrinsic_energy,
                       is_highest_weight)
from .kostka import (GLOBAL_NORMALIZATION, KostkaInstance, fermionic_kostka,
                     path_kostka)
from .qalg import (IntPolynomial, PochhammerSpec, q_binomial, pochhammer)
from .qseries.bailey import (INFINITY, bailey_step,
                             rogers_ramanujan_seed, unit_bailey_pair,
                             verify_bailey_pair, weak_lemma)
from .qseries.presets import (PresetFormatError, PresetRegistry,
                              UnknownPresetError, evaluate_side)
from .qseries.sums import compare_series
from .rc import (InvalidRiggedConfigurationError, MultiplicityArray,
                 UnsupportedFactorShapeError, cocharge, enumerate_rc,
                 rc_from_json, rc_to_json)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNEQUAL = 3
EXIT_UNSUPPORTED = 4
EXIT_UNKNOWN_PRESET = 5

# Largest last index of the one dense coefficient list a subcommand fills:
# the degree k(m-k) for `qbinom`; the grid order*d (order in q, step 1/d)
# for `pochhammer` and `bailey`, d being the lcm of the denominators of
# their rational flags; the order for `character` and `compare`.  The
# library has no limit.
MAX_GRID = 20_000
# Most steps `bailey` chains, a work bound: each costs O(N^2) kernel passes.
BAILEY_MAX_STEPS = 100

# Library operation -> the one subcommand that runs it (reachability-tested).
OPERATION_MAP = {
    "qalg.IntPolynomial.__add__": "kostka",
    "qalg.q_binomial": "qbinom",
    "qalg.TruncatedSeries.__sub__": "compare",
    "qalg.pochhammer": "pochhammer",
    "combinat.partitions_of": "rc-list",
    "crystals.enumerate_paths": "paths",
    "crystals.f_op": "paths",
    "crystals.e_op": "paths",
    "crystals.is_highest_weight": "paths",
    "crystals.intrinsic_energy": "paths",
    "rc.vacancy_numbers": "rc-list",
    "rc.enumerate_rc": "rc-list",
    "rc.cocharge": "rc-list",
    "bijection.path_to_rc": "bijection",
    "bijection.rc_to_path": "bijection",
    "kostka.fermionic_kostka": "kostka",
    "kostka.path_kostka": "kostka",
    "qseries.verify_bailey_pair": "bailey",
    "qseries.bailey_step": "bailey",
    "qseries.eval_fermionic": "character",
    "qseries.eval_bosonic": "character",
    "qseries.compare_series": "compare",
    "qseries.evaluate_side": "character",
}

_BAILEY_PAIRS = {
    "unit": unit_bailey_pair,
    "rogers-ramanujan-seed": rogers_ramanujan_seed,
}


def _parse_shapes(text: str) -> list[tuple[int, int]]:
    """Rectangles RxC, comma separated: '1x1,1x2'."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if "x" in piece:
            r, _, c = piece.partition("x")
        else:
            r, c = "1", piece
        try:
            shape = (int(r), int(c))
        except ValueError:
            raise ValueError(f"malformed shape {piece!r}") from None
        if shape[0] < 1 or shape[1] < 1:
            raise ValueError(f"malformed shape {piece!r}")
        out.append(shape)
    return out


def _parse_weight(text: str) -> Composition:
    try:
        return Composition.parse(text)
    except ValueError as exc:
        raise ValueError(f"malformed weight: {exc}") from None


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _require_rows(shapes: list[tuple[int, int]]) -> tuple[int, ...]:
    """Widths in the order given: kostka, paths and bijection take rows only."""
    if any(r != 1 for r, _ in shapes):
        raise UnsupportedFactorShapeError("unsupported factor shape")
    return tuple(c for _, c in shapes)


def _poly_payload(p: IntPolynomial) -> dict:
    return {"text": p.render(), "terms": p.to_json()}


# -- subcommand implementations ---------------------------------------------

def _cmd_kostka(args) -> tuple[dict, int]:
    shapes = _parse_shapes(args.shapes)
    widths = _require_rows(shapes)
    weight = _parse_weight(args.weight)
    inst = KostkaInstance(MultiplicityArray.from_rows(widths, args.n), weight)
    if args.side == "fermionic":
        return {"fermionic": _poly_payload(fermionic_kostka(inst))}, EXIT_OK
    if args.side == "path":
        return {"path": _poly_payload(path_kostka(inst))}, EXIT_OK
    fermionic = fermionic_kostka(inst)
    path = path_kostka(inst)
    equal = fermionic == path
    result = {"fermionic": _poly_payload(fermionic),
              "path": _poly_payload(path),
              "normalization": dict(GLOBAL_NORMALIZATION), "equal": equal}
    if not equal:
        first = min((fermionic - path).terms)
        result["counterexample"] = {
            "first_difference_exponent": first,
            "fermionic_coefficient": fermionic.coefficient(first),
            "path_coefficient": path.coefficient(first)}
    return result, EXIT_OK if equal else EXIT_UNEQUAL


def _cmd_rc_list(args) -> tuple[dict, int]:
    shapes = _parse_shapes(args.shapes)
    weight = _parse_weight(args.weight)
    # repeated rectangles are summed by MultiplicityArray
    L = MultiplicityArray(tuple((shape, 1) for shape in shapes), args.n)
    objects = []
    for rc in enumerate_rc(L, weight):
        objects.append({"levels": rc_to_json(rc, L), "cocharge": cocharge(rc)})
    return {"count": len(objects), "objects": objects}, EXIT_OK


def _cmd_paths(args) -> tuple[dict, int]:
    shapes = _parse_shapes(args.shapes)
    widths = _require_rows(shapes)
    weight = _parse_weight(args.weight)
    paths = enumerate_paths(widths, args.n, weight)
    objects = []
    for p in paths:
        highest = is_highest_weight(p)
        if args.highest_weight_only and not highest:
            continue
        objects.append({"path": str(p), "energy": intrinsic_energy(p),
                        "highest_weight": highest})
    return {"count": len(objects), "objects": objects}, EXIT_OK


def _cmd_bijection(args) -> tuple[dict, int]:
    shapes = _parse_shapes(args.shapes) if args.shapes else None
    weight = _parse_weight(args.weight) if args.weight else None
    if (args.path is not None) + (args.rc is not None) + args.check != 1:
        raise ValueError("exactly one of --path, --rc, --check is required")
    if args.path is not None:
        try:
            p = Path.parse(args.path, args.n)
        except ValueError as exc:
            raise ValueError(f"malformed path: {exc}") from None
        rc = path_to_rc(p)
        L = MultiplicityArray.from_rows(p.shapes(), p.n)
        energy, c = intrinsic_energy(p), cocharge(rc)
        # cocharge = sign * energy + shift, against the frozen (1, 0)
        return {"path": str(p), "rc": rc_to_json(rc, L),
                "statistic": {"energy": energy, "cocharge": c, "relation":
                              {"sign": 1, "shift": c - energy}}}, EXIT_OK
    if args.rc is not None:
        if shapes is None:
            raise ValueError("--rc requires --shapes")
        widths = _require_rows(shapes)
        L = MultiplicityArray.from_rows(widths, args.n)
        try:
            rc = rc_from_json(json.loads(args.rc), L)
            p = rc_to_path(rc, L, widths)
        except InvalidRiggedConfigurationError as exc:
            raise ValueError(f"invalid rigged configuration: {exc}") from None
        except (ValueError, RecursionError) as exc:  # too deeply nested
            raise ValueError(f"malformed rc JSON: {exc}") from None
        return {"rc": rc_to_json(rc, L), "path": str(p)}, EXIT_OK
    if shapes is None or weight is None:
        raise ValueError("--check requires --shapes and --weight")
    widths = _require_rows(shapes)
    paths = enumerate_paths(widths, args.n, weight)
    L = MultiplicityArray.from_rows(widths, args.n)
    for p in paths:
        rc = path_to_rc(p)
        if rc_to_path(rc, L, widths) != p:
            return {"roundtrip": "failed", "path": str(p)}, EXIT_UNEQUAL
        if intrinsic_energy(p) != cocharge(rc):  # off the frozen normalization
            return {"roundtrip": "ok", "statistic": "cocharge != energy",
                    "path": str(p)}, EXIT_UNEQUAL
    rc_count = len(enumerate_rc(L, weight))
    if rc_count != len(paths):
        return {"roundtrip": "ok",
                "statistic": f"cardinality mismatch {len(paths)} vs {rc_count}"
                }, EXIT_UNEQUAL
    return {"roundtrip": "ok", "statistic": "ok", "paths": len(paths),
            "relation": dict(GLOBAL_NORMALIZATION)}, EXIT_OK


def _cmd_qbinom(args) -> tuple[dict, int]:
    if args.m < 0:
        raise ValueError("m must be nonnegative")
    _require_grid("degree k(m-k)", args.k * (args.m - args.k))
    return {"polynomial": _poly_payload(q_binomial(args.m, args.k))}, EXIT_OK


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational {text!r}") from None


def _require_grid(quantity: str, value: int | Fraction, *rationals: Fraction) -> None:
    """Refuse `value` times the lcm of the `rationals`' denominators past MAX_GRID."""
    grid = value * lcm(*(r.denominator for r in rationals))
    if grid > MAX_GRID:
        raise ValueError(f"{quantity} = {grid} is above the limit {MAX_GRID}")


def _cmd_pochhammer(args) -> tuple[dict, int]:
    length = None
    if args.length not in ("inf", "infinity"):
        try:
            length = int(args.length)
        except ValueError:
            raise ValueError(f"malformed length {args.length!r}") from None
    exponent, step = _parse_fraction(args.exponent), _parse_fraction(args.step)
    _require_grid("series grid order*d", args.order, exponent, step)
    spec = PochhammerSpec(args.sign, exponent, step, length)
    series = pochhammer(spec, args.order)
    return {"series": series.to_json()}, EXIT_OK


def _preset(registry: PresetRegistry, name: str, order: int | None):
    """The preset and its order: `order`, else the declared one, to MAX_GRID,
    and its series grid order*d, with step 1/d from the exponents and steps
    of its fermionic factors and bosonic prefactors, and from the point
    exponents: (1/2) n.A.n + b.n + c is sum_i A_ii n_i(n_i-1)/2 + (A_ii/2 +
    b_i) n_i, plus sum_{i<j} A_ij n_i n_j, plus c, and a2 j^2 + a1 j + a0 of
    the theta is 2a2 j(j-1)/2 + (a2 + a1) j + a0.  The constants c and a0
    offset the sides against each other, so they count before either side
    is evaluated."""
    preset = registry.get(name)
    order = preset.declared_order if order is None else order
    A, b = preset.fermionic.quadratic, preset.fermionic.linear
    a2, a1 = preset.bosonic.a2, preset.bosonic.a1
    _require_grid("order", order)
    _require_grid("series grid order*d", order,
                  *(x for f in preset.fermionic.factors + preset.bosonic.prefactors
                    for x in (f.exponent, f.step)),
                  *(x for row in A for x in row),
                  *(A[i][i] / 2 + b[i] for i in range(len(b))),
                  preset.fermionic.constant, preset.bosonic.a0,
                  *((2 * a2, a2 + a1) if a2 is not None else ()))
    return preset, order


def _verdict(payload: dict, a, b, **tail) -> tuple[dict, int]:
    """`payload`, the verdict on series a == b to the order both are exact
    to (on exit 3 with where they first differ), then `tail`."""
    # compare_series fills one list from the least offset to the least
    # frontier, on a step 1/d that holds both grids and their offsets
    _require_grid("series grid order*d", min(a.frontier, b.frontier)
                  - min(a.offset, b.offset), a.step, b.step, a.offset - b.offset)
    comparison = compare_series(a, b)
    payload.update(equal=comparison.equal,
                   checked_order=str(comparison.checked_frontier))
    if not comparison.equal:
        payload["first_difference"] = {"exponent": str(comparison.first_difference),
                                       "left": comparison.left_coefficient,
                                       "right": comparison.right_coefficient}
    payload.update(tail)
    return payload, EXIT_OK if comparison.equal else EXIT_UNEQUAL


def _cmd_character(args) -> tuple[dict, int]:
    preset, order = _preset(PresetRegistry(args.preset_dir), args.preset, args.order)
    fermi = evaluate_side(preset, order, "fermionic")
    bose = evaluate_side(preset, order, "bosonic")
    # the d of the rescaling q -> q^(1/d) that puts both sides on integers
    d = lcm(fermi.step.denominator, bose.step.denominator,
            fermi.offset.denominator, bose.offset.denominator)
    return _verdict({"preset": preset.name, "order": order,
                     "fermionic": fermi.to_json(), "bosonic": bose.to_json(),
                     "rescale_denominator": d}, fermi, bose,
                    negative_control=preset.negative_control, note=preset.note)


def _stepped_pair(args):
    if args.pair not in _BAILEY_PAIRS:
        raise ValueError(f"unknown Bailey pair {args.pair!r}; "
                         f"available: {', '.join(sorted(_BAILEY_PAIRS))}")
    pair = _BAILEY_PAIRS[args.pair]()
    if args.steps > BAILEY_MAX_STEPS:
        raise ValueError(f"{args.steps} steps is above the limit {BAILEY_MAX_STEPS}")
    # --rho and --sigma are read only when a step uses them
    params = [INFINITY if text in ("inf", "infinity") else _parse_fraction(text)
              for text in (args.rho, args.sigma) if args.steps]
    _require_grid("series grid order*d", args.order,
                  *(p for p in params if p is not INFINITY))
    for _ in range(args.steps):
        pair = bailey_step(pair, *params)
    return pair


def _cmd_bailey(args) -> tuple[dict, int]:
    pair = _stepped_pair(args)
    if args.mode == "verify":
        check = verify_bailey_pair(pair, args.order,
                                   max_n=min(args.order, args.max_n))
        result = {"pair": pair.name, "valid": check.valid, "order": check.order,
                  "checked_n": check.checked_n}
        if not check.valid:
            result.update(failing_n=check.failing_n,
                          failing_exponent=str(check.failing_exponent))
        return result, EXIT_OK if check.valid else EXIT_UNEQUAL
    # weak-limit extraction: the n -> infinity identity of the pair
    lhs, rhs = weak_lemma(pair, args.order)
    return _verdict({"pair": pair.name, "lhs": lhs.to_json(),
                     "rhs": rhs.to_json()}, lhs, rhs)


def _cmd_compare(args) -> tuple[dict, int]:
    registry = PresetRegistry(args.preset_dir)
    # preset a is looked up and checked before preset b; the offset of each
    # preset shifts its side, so their difference counts before evaluation
    (pa, order_a), (pb, order_b) = (_preset(registry, name, args.order)
                                    for name in (args.preset_a, args.preset_b))
    _require_grid("series grid order*d", min(order_a, order_b), pa.offset - pb.offset)
    a, b = evaluate_side(pa, order_a, args.side_a), evaluate_side(pb, order_b, args.side_b)
    return _verdict({"left": a.to_json(), "right": b.to_json()}, a, b)


# -- driver ------------------------------------------------------------------

class _VersionAction(argparse._VersionAction):
    """`--version`, which names the preset versions: the registry is loaded
    only when the flag is given, so a malformed preset file cannot break
    the other subcommands."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            summary = PresetRegistry().version_summary()
        except PresetFormatError as exc:
            parser.exit(EXIT_USAGE, f"error: {exc}\n")
        self.version = f"qrigged {__version__} (presets: {summary})"
        super().__call__(parser, namespace, values, option_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser all `main` calls share: parsing leaves it unchanged, and
    it reads the streams and terminal width only when it prints."""
    top = argparse.ArgumentParser(
        prog="qrigged",
        description="Unrestricted Kostka polynomials and q-series identities, exactly.")
    top.add_argument("--version", action=_VersionAction)
    sub = top.add_subparsers(dest="command", required=True)

    def add_instance_flags(p):
        p.add_argument("--shapes", required=True,
                       help="tensor factors as RxC rectangles, e.g. 1x1,1x2")
        p.add_argument("--n", type=int, required=True, help="rank (alphabet size)")
        p.add_argument("--weight", required=True,
                       help="content composition, e.g. 1,1")

    p = sub.add_parser("kostka", help="unrestricted Kostka polynomial")
    add_instance_flags(p)
    p.add_argument("--side", choices=("fermionic", "path", "both"), default="both")
    p.set_defaults(func=_cmd_kostka)

    p = sub.add_parser("rc-list", help="list unrestricted rigged configurations")
    add_instance_flags(p)
    p.set_defaults(func=_cmd_rc_list)

    p = sub.add_parser("paths", help="list crystal paths with energies")
    add_instance_flags(p)
    p.add_argument("--highest-weight-only", action="store_true")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("bijection", help="map between paths and rigged configurations")
    p.add_argument("--shapes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight")
    p.add_argument("--path", help="path literal, e.g. 12(x)1")
    p.add_argument("--rc", help="rigged configuration as JSON")
    p.add_argument("--check", action="store_true",
                   help="round-trip and statistic check over the instance")
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser(
        "qbinom", help="Gaussian binomial [m choose k]_q",
        description=f"Gaussian binomial [m choose k]_q.  A degree k(m-k) above "
                    f"{MAX_GRID} is refused with exit code 2.")
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_qbinom)

    p = sub.add_parser(
        "pochhammer", help="q-Pochhammer expansion",
        description=f"q-Pochhammer expansion.  A grid order*d above {MAX_GRID} "
                    "(step 1/d, the lcm of the denominators of --exponent and "
                    "--step) is refused with exit code 2.")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--exponent", default="1", help="rational r in (q^r; q^m)")
    p.add_argument("--step", default="1", help="rational m in (q^r; q^m)")
    p.add_argument("--length", default="inf", help="integer or 'inf'")
    p.add_argument("--order", type=_nonnegative_int, default=20)
    p.set_defaults(func=_cmd_pochhammer)

    order_limit = (f"An order above {MAX_GRID} (--order, else the declared "
                   f"order), or a series grid order*d above {MAX_GRID} (step "
                   "1/d, the lcm of the denominators of the preset's factor "
                   "exponents and steps, of its quadratic form's A_ij and "
                   "A_ii/2 + b_i and constant, and of its theta's 2a2, a2 + "
                   "a1 and constant; for the comparison, also of the two "
                   "sides' offset difference), is refused with exit code 2.")
    p = sub.add_parser("character", help="verify a character preset",
                       description="Verify a character preset.  " + order_limit)
    p.add_argument("--preset", required=True)
    p.add_argument("--order", type=_nonnegative_int, default=None)
    p.add_argument("--preset-dir", default=None)
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser(
        "bailey", help="Bailey pair verification and chain steps",
        description=f"Bailey pair verification and chain steps.  More than "
                    f"{BAILEY_MAX_STEPS} steps (each costs O(N^2) kernel "
                    "passes on a table of N entries), or a grid order*d above "
                    f"{MAX_GRID} (step 1/d, the lcm of the denominators "
                    "of --rho and --sigma), is refused with exit code 2.")
    p.add_argument("--mode", choices=("verify", "weak-limit"), default="verify")
    p.add_argument("--pair", default="unit",
                   help="seed pair name: " + ", ".join(sorted(_BAILEY_PAIRS)))
    p.add_argument("--steps", type=_nonnegative_int, default=0,
                   help="number of Bailey-lemma steps to apply first")
    p.add_argument("--rho", default="inf")
    p.add_argument("--sigma", default="inf")
    p.add_argument("--order", type=_nonnegative_int, default=20)
    p.add_argument("--max-n", type=_nonnegative_int, default=12,
                   help="verify the defining relation for n up to this")
    p.set_defaults(func=_cmd_bailey)

    p = sub.add_parser("compare", help="compare two preset sides as series",
                       description="Compare two preset sides as series.  " + order_limit)
    p.add_argument("--preset-a", required=True)
    p.add_argument("--side-a", choices=("fermionic", "bosonic"), default="fermionic")
    p.add_argument("--preset-b", required=True)
    p.add_argument("--side-b", choices=("fermionic", "bosonic"), default="bosonic")
    p.add_argument("--order", type=_nonnegative_int, default=None)
    p.add_argument("--preset-dir", default=None)
    p.set_defaults(func=_cmd_compare)

    for name, parser in sub.choices.items():
        parser.add_argument("--format", choices=("json", "text"), default="json")
        parser.add_argument("--timing", action="store_true",
                            help="attach wall-clock timing (breaks byte-identity)")
    return top


def _render_text(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    lines.append(_render_text(item, indent + 1))
                    lines.append(f"{pad}  -")
                else:
                    lines.append(f"{pad}  {item}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():
        # argparse turns an explicit `--flag=--` into [], skipping the type
        parser.error("'--' is not a value")
    started = time.monotonic()
    try:
        result, code = args.func(args)
    except UnknownPresetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_PRESET
    except UnsupportedFactorShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    envelope = {
        "command": args.command,
        "input": {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func", "format", "timing") and v is not None},
        "result": result,
        "version": __version__,
    }
    if args.timing:
        envelope["timing_ms"] = round((time.monotonic() - started) * 1000, 3)
    try:
        print(json.dumps(envelope, sort_keys=True, separators=(",", ":"))
              if args.format == "json" else _render_text(envelope), flush=True)
    except BrokenPipeError:  # `| head`: drop the rest, and at exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
