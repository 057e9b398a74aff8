"""Command-line surface: every library operation behind one subcommand.

Exit codes: 0 success (and identity verified where applicable), 2 usage or
parse error, 3 verified inequality, 4 unsupported factor shape, 5 unknown
preset.  Output is a deterministic envelope (command echo, input echo,
result payload, library version); timing is attached only on request so
that repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .bijection import check_statistic, path_to_rc, rc_to_path
from .combinat import Composition
from .crystals import (Path, UnsupportedFactorShapeError, enumerate_paths,
                       intrinsic_energy, is_highest_weight)
from .kostka import (KostkaInstance, fermionic_kostka, path_kostka,
                     verify_identity)
from .qalg import (IntPolynomial, PochhammerSpec, q_binomial, pochhammer)
from .qseries.bailey import (INFINITY, InsufficientOrderError, bailey_step,
                             rogers_ramanujan_seed, unit_bailey_pair,
                             verify_bailey_pair, weak_lemma)
from .qseries.presets import (PresetRegistry, UnknownPresetError, character)
from .qseries.sums import compare_series, eval_bosonic, eval_fermionic
from .rc import (InvalidRiggedConfigurationError, MultiplicityArray, cocharge,
                 enumerate_rc, rc_from_json, rc_to_json)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNEQUAL = 3
EXIT_UNSUPPORTED = 4
EXIT_UNKNOWN_PRESET = 5

# Spec operation -> the one subcommand that exposes it (coverage-tested).
OPERATION_MAP = {
    "qalg.poly_add": "kostka",
    "qalg.poly_mul": "qbinom",
    "qalg.q_binomial": "qbinom",
    "qalg.series_from_poly": "pochhammer",
    "qalg.series_arithmetic": "compare",
    "qalg.pochhammer": "pochhammer",
    "combinat.enumerate_ssyt": "paths",
    "combinat.charge": "paths",
    "combinat.kostka_foulkes": "kostka",
    "combinat.kostka_number": "paths",
    "crystals.enumerate_paths": "paths",
    "crystals.f_op": "paths",
    "crystals.e_op": "paths",
    "crystals.is_highest_weight": "paths",
    "crystals.local_energy": "paths",
    "crystals.intrinsic_energy": "paths",
    "rc.vacancy": "rc-list",
    "rc.lower_bound": "rc-list",
    "rc.enumerate_rc": "rc-list",
    "rc.cocharge": "rc-list",
    "bijection.path_to_rc": "bijection",
    "bijection.rc_to_path": "bijection",
    "bijection.check_statistic": "bijection",
    "kostka.fermionic_kostka": "kostka",
    "kostka.path_kostka": "kostka",
    "kostka.restricted_kostka": "paths",
    "kostka.verify_identity": "kostka",
    "qseries.verify_bailey_pair": "bailey",
    "qseries.bailey_step": "bailey",
    "qseries.eval_fermionic": "character",
    "qseries.eval_bosonic": "character",
    "qseries.compare_series": "compare",
    "qseries.character": "character",
}

_BAILEY_PAIRS = {
    "unit": unit_bailey_pair,
    "rogers-ramanujan-seed": rogers_ramanujan_seed,
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


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
            raise CliError(f"malformed shape {piece!r}", EXIT_USAGE) from None
        if shape[0] < 1 or shape[1] < 1:
            raise CliError(f"malformed shape {piece!r}", EXIT_USAGE)
        out.append(shape)
    return out


def _parse_weight(text: str) -> Composition:
    try:
        return Composition.parse(text)
    except ValueError as exc:
        raise CliError(f"malformed weight: {exc}", EXIT_USAGE) from None


def _require_rows(shapes: list[tuple[int, int]]) -> tuple[int, ...]:
    if any(r != 1 for r, _ in shapes):
        raise CliError("unsupported factor shape", EXIT_UNSUPPORTED)
    return tuple(c for _, c in shapes)


def _multiplicity_array(shapes: list[tuple[int, int]], n: int) -> MultiplicityArray:
    counts: dict[tuple[int, int], int] = {}
    for (r, c) in shapes:
        counts[(r, c)] = counts.get((r, c), 0) + 1
    try:
        return MultiplicityArray(tuple(counts.items()), n)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None


def _series_payload(s) -> dict:
    return {"offset": str(s.offset), "step": str(s.step),
            "coeffs": [str(c) for c in s.coeffs]}


def _poly_payload(p: IntPolynomial) -> dict:
    return {"text": p.render(), "terms": p.to_json()}


# -- subcommand implementations ---------------------------------------------

def _cmd_kostka(args) -> tuple[dict, int]:
    shapes = _parse_shapes(args.shapes)
    widths = _require_rows(shapes)
    weight = _parse_weight(args.weight)
    try:
        inst = KostkaInstance(MultiplicityArray.from_rows(widths, args.n), weight)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    if args.side == "fermionic":
        return {"fermionic": _poly_payload(fermionic_kostka(inst))}, EXIT_OK
    if args.side == "path":
        return {"path": _poly_payload(path_kostka(inst))}, EXIT_OK
    report = verify_identity(inst)
    result = {"fermionic": _poly_payload(report.fermionic),
              "path": _poly_payload(report.path),
              "normalization": dict(report.normalization),
              "equal": report.equal}
    if report.counterexample is not None:
        result["counterexample"] = report.counterexample
    return result, EXIT_OK if report.equal else EXIT_UNEQUAL


def _cmd_rc_list(args) -> tuple[dict, int]:
    shapes = _parse_shapes(args.shapes)
    weight = _parse_weight(args.weight)
    L = _multiplicity_array(shapes, args.n)
    if weight.size() != L.total_boxes():
        raise CliError(
            f"weight total {weight.size()} != boxes {L.total_boxes()}",
            EXIT_USAGE)
    objects = []
    for rc in enumerate_rc(L, weight):
        objects.append({"levels": rc_to_json(rc, L), "cocharge": cocharge(rc)})
    return {"count": len(objects), "objects": objects}, EXIT_OK


def _cmd_paths(args) -> tuple[dict, int]:
    shapes = _parse_shapes(args.shapes)
    widths = _require_rows(shapes)
    weight = _parse_weight(args.weight)
    try:
        paths = enumerate_paths(widths, args.n, weight)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    objects = []
    for p in paths:
        if args.highest_weight_only and not is_highest_weight(p):
            continue
        objects.append({"path": str(p), "energy": intrinsic_energy(p),
                        "highest_weight": is_highest_weight(p)})
    return {"count": len(objects), "objects": objects}, EXIT_OK


def _cmd_bijection(args) -> tuple[dict, int]:
    shapes = _parse_shapes(args.shapes) if args.shapes else None
    weight = _parse_weight(args.weight) if args.weight else None
    if args.path:
        try:
            p = Path.parse(args.path, args.n)
        except ValueError as exc:
            raise CliError(f"malformed path: {exc}", EXIT_USAGE) from None
        try:
            rc = path_to_rc(p)
        except UnsupportedFactorShapeError as exc:
            raise CliError(str(exc), EXIT_UNSUPPORTED) from None
        L = MultiplicityArray.from_rows(p.shapes(), p.n)
        result = {"path": str(p), "rc": rc_to_json(rc, L),
                  "statistic": check_statistic(p).as_dict()}
        return result, EXIT_OK
    if args.rc:
        if shapes is None:
            raise CliError("--rc requires --shapes", EXIT_USAGE)
        widths = _require_rows(shapes)
        L = MultiplicityArray.from_rows(widths, args.n)
        try:
            rc = rc_from_json(json.loads(args.rc), L)
            p = rc_to_path(rc, L, widths)
        except InvalidRiggedConfigurationError as exc:
            raise CliError(f"invalid rigged configuration: {exc}", EXIT_USAGE) from None
        except (ValueError, KeyError, TypeError) as exc:
            raise CliError(f"malformed rc JSON: {exc}", EXIT_USAGE) from None
        return {"rc": rc_to_json(rc, L), "path": str(p)}, EXIT_OK
    if args.check:
        if shapes is None or weight is None:
            raise CliError("--check requires --shapes and --weight", EXIT_USAGE)
        widths = _require_rows(shapes)
        try:
            paths = enumerate_paths(widths, args.n, weight)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_USAGE) from None
        L = MultiplicityArray.from_rows(widths, args.n)
        seen = set()
        relation = None
        for p in paths:
            rc = path_to_rc(p)
            back = rc_to_path(rc, L, widths)
            if back != p:
                return {"roundtrip": "failed", "path": str(p)}, EXIT_UNEQUAL
            key = str(rc)
            if key in seen:
                return {"roundtrip": "not injective", "path": str(p)}, EXIT_UNEQUAL
            seen.add(key)
            rep = check_statistic(p)
            rel = (rep.sign, rep.shift)
            if relation is None:
                relation = rel
            elif relation != rel:
                return {"roundtrip": "ok", "statistic": "relation not constant",
                        "path": str(p)}, EXIT_UNEQUAL
        rc_count = len(enumerate_rc(L, weight))
        if rc_count != len(paths):
            return {"roundtrip": "ok",
                    "statistic": f"cardinality mismatch {len(paths)} vs {rc_count}"
                    }, EXIT_UNEQUAL
        return {"roundtrip": "ok", "statistic": "ok", "paths": len(paths),
                "relation": {"sign": relation[0] if relation else 1,
                             "shift": relation[1] if relation else 0}}, EXIT_OK
    raise CliError("one of --path, --rc, --check is required", EXIT_USAGE)


def _cmd_qbinom(args) -> tuple[dict, int]:
    if args.m < 0:
        raise CliError("m must be nonnegative", EXIT_USAGE)
    return {"polynomial": _poly_payload(q_binomial(args.m, args.k))}, EXIT_OK


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"malformed rational {text!r}", EXIT_USAGE) from None


def _cmd_pochhammer(args) -> tuple[dict, int]:
    length = None
    if args.length not in ("inf", "infinity"):
        try:
            length = int(args.length)
        except ValueError:
            raise CliError(f"malformed length {args.length!r}", EXIT_USAGE) from None
    try:
        spec = PochhammerSpec(args.sign, _parse_fraction(args.exponent),
                              _parse_fraction(args.step), length)
        series = pochhammer(spec, args.order)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    return {"series": _series_payload(series)}, EXIT_OK


def _cmd_character(args) -> tuple[dict, int]:
    registry = PresetRegistry(args.preset_dir)
    try:
        preset = registry.get(args.preset)
    except UnknownPresetError as exc:
        raise CliError(str(exc), EXIT_UNKNOWN_PRESET) from None
    report = character(preset, args.order)
    payload = report.as_dict()
    payload["negative_control"] = preset.negative_control
    payload["note"] = preset.note
    return payload, EXIT_OK if report.equal else EXIT_UNEQUAL


def _stepped_pair(args):
    if args.pair not in _BAILEY_PAIRS:
        raise CliError(f"unknown Bailey pair {args.pair!r}; "
                       f"available: {', '.join(sorted(_BAILEY_PAIRS))}",
                       EXIT_USAGE)
    pair = _BAILEY_PAIRS[args.pair]()
    for _ in range(args.steps):
        rho = INFINITY if args.rho in ("inf", "infinity") else _parse_fraction(args.rho)
        sigma = INFINITY if args.sigma in ("inf", "infinity") else _parse_fraction(args.sigma)
        try:
            pair = bailey_step(pair, rho, sigma)
        except (ValueError, InsufficientOrderError) as exc:
            raise CliError(str(exc), EXIT_USAGE) from None
    return pair


def _cmd_bailey(args) -> tuple[dict, int]:
    if args.mode == "verify":
        pair = _stepped_pair(args)
        check = verify_bailey_pair(pair, args.order,
                                   max_n=min(args.order, args.max_n))
        return ({"pair": pair.name, **check.as_dict()},
                EXIT_OK if check.valid else EXIT_UNEQUAL)
    # weak-limit extraction: the n -> infinity identity of the pair
    pair = _stepped_pair(args)
    lhs, rhs = weak_lemma(pair, args.order)
    comparison = compare_series(lhs, rhs)
    return ({"pair": pair.name, "lhs": _series_payload(lhs),
             "rhs": _series_payload(rhs), **comparison.as_dict()},
            EXIT_OK if comparison.equal else EXIT_UNEQUAL)


def _cmd_compare(args) -> tuple[dict, int]:
    registry = PresetRegistry(args.preset_dir)

    def side(preset_name: str, which: str):
        try:
            preset = registry.get(preset_name)
        except UnknownPresetError as exc:
            raise CliError(str(exc), EXIT_UNKNOWN_PRESET) from None
        order = args.order or preset.declared_order
        if which == "fermionic":
            return eval_fermionic(preset.fermionic, order).shift(preset.offset)
        return eval_bosonic(preset.bosonic, order).shift(preset.offset)

    a = side(args.preset_a, args.side_a)
    b = side(args.preset_b, args.side_b)
    comparison = compare_series(a, b)
    return ({"left": _series_payload(a), "right": _series_payload(b),
             **comparison.as_dict()},
            EXIT_OK if comparison.equal else EXIT_UNEQUAL)


# -- driver ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qrigged",
        description="Unrestricted Kostka polynomials and q-series identities, exactly.")
    top.add_argument("--version", action="version",
                     version=f"qrigged {__version__} "
                             f"(presets: {PresetRegistry().version_summary()})")
    sub = top.add_subparsers(dest="command", required=True)

    def add_instance_flags(p, weight_required=True):
        p.add_argument("--shapes", required=True,
                       help="tensor factors as RxC rectangles, e.g. 1x1,1x2")
        p.add_argument("--n", type=int, required=True, help="rank (alphabet size)")
        p.add_argument("--weight", required=weight_required,
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

    p = sub.add_parser("qbinom", help="Gaussian binomial [m choose k]_q")
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_qbinom)

    p = sub.add_parser("pochhammer", help="q-Pochhammer expansion")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--exponent", default="1", help="rational r in (q^r; q^m)")
    p.add_argument("--step", default="1", help="rational m in (q^r; q^m)")
    p.add_argument("--length", default="inf", help="integer or 'inf'")
    p.add_argument("--order", type=int, default=20)
    p.set_defaults(func=_cmd_pochhammer)

    p = sub.add_parser("character", help="verify a character preset")
    p.add_argument("--preset", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--preset-dir", default=None)
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("bailey", help="Bailey pair verification and chain steps")
    p.add_argument("--mode", choices=("verify", "weak-limit"), default="verify")
    p.add_argument("--pair", default="unit",
                   help="seed pair name: " + ", ".join(sorted(_BAILEY_PAIRS)))
    p.add_argument("--steps", type=int, default=0,
                   help="number of Bailey-lemma steps to apply first")
    p.add_argument("--rho", default="inf")
    p.add_argument("--sigma", default="inf")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--max-n", type=int, default=12,
                   help="verify the defining relation for n up to this")
    p.set_defaults(func=_cmd_bailey)

    p = sub.add_parser("compare", help="compare two preset sides as series")
    p.add_argument("--preset-a", required=True)
    p.add_argument("--side-a", choices=("fermionic", "bosonic"), default="fermionic")
    p.add_argument("--preset-b", required=True)
    p.add_argument("--side-b", choices=("fermionic", "bosonic"), default="bosonic")
    p.add_argument("--order", type=int, default=None)
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
    started = time.monotonic()
    try:
        result, code = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except UnsupportedFactorShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    envelope = {
        "command": args.command,
        "input": {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func", "format", "timing") and v is not None},
        "result": result,
        "version": __version__,
    }
    if args.timing:
        envelope["timing_ms"] = round((time.monotonic() - started) * 1000, 3)
    if args.format == "json":
        print(json.dumps(envelope, sort_keys=True, separators=(",", ":")))
    else:
        print(_render_text(envelope))
    return code


if __name__ == "__main__":
    sys.exit(main())
