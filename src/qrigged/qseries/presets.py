"""Character preset registry: named fermionic/bosonic identity pairs.

Presets live in versioned JSON data files, one per family, so the concrete
sums are reviewable data rather than code.  Every preset must declare the
order to which it has been verified; the registry refuses files without
one.  Fractional exponents are handled by the series layer's uniform
rescaling q -> q^(1/d); the d actually used is recorded in the report.
"""
from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path as FilePath
from typing import Optional

from ..qalg import TruncatedSeries, json_int, json_rational
from .sums import (AffineForm, BosonicSumSpec, Congruence, FermionicSumSpec,
                   PochhammerFactor, SeriesComparison, compare_series,
                   eval_bosonic, eval_fermionic)


class UnknownPresetError(KeyError):
    """Raised for a preset name absent from the registry."""


class PresetFormatError(ValueError):
    """Raised for malformed or incomplete preset files."""


ENV_PRESET_DIR = "QRIGGED_PRESET_DIR"
_BUILTIN_DIR = FilePath(__file__).parent / "presets"


def _parse_affine(data, dim: int) -> AffineForm:
    coeffs = [json_rational(x, "affine coefficient") for x in data]
    if len(coeffs) != dim + 1:
        raise PresetFormatError(
            f"affine form needs {dim + 1} coefficients (constant first)")
    return AffineForm(coeffs[0], tuple(coeffs[1:]))


def _parse_factor(data, dim: int) -> PochhammerFactor:
    length = data.get("length")
    return PochhammerFactor(
        sign=json_int(data.get("sign", 1), "sign"),
        exponent=json_rational(data["exponent"], "exponent"),
        step=json_rational(data.get("step", 1), "step"),
        length=None if length is None else _parse_affine(length, dim),
        power=json_int(data.get("power", -1), "power"),
    )


def _parse_fermionic(data) -> FermionicSumSpec:
    dim = json_int(data["dim"], "dim")
    return FermionicSumSpec(
        dim=dim,
        quadratic=tuple(tuple(json_rational(x, "quadratic") for x in row)
                        for row in data.get("quadratic", [])),
        linear=tuple(json_rational(x, "linear")
                     for x in data.get("linear", ["0"] * dim)),
        constant=json_rational(data.get("constant", 0), "constant"),
        factors=tuple(_parse_factor(f, dim) for f in data.get("factors", [])),
        congruences=tuple(
            Congruence(_parse_affine(c["form"], dim),
                       json_int(c["modulus"], "modulus"))
            for c in data.get("congruences", [])),
        inequalities=tuple(_parse_affine(f, dim)
                           for f in data.get("inequalities", [])),
    )


def _parse_bosonic(data) -> BosonicSumSpec:
    theta = data.get("theta")
    kwargs = {}
    if theta is not None:
        kwargs = {
            "parity": json_int(theta.get("parity", 1), "parity"),
            "a2": json_rational(theta["quadratic"], "theta quadratic"),
            "a1": json_rational(theta.get("linear", 0), "theta linear"),
            "a0": json_rational(theta.get("constant", 0), "theta constant"),
        }
    return BosonicSumSpec(
        prefactors=tuple(_parse_factor(f, 0)
                         for f in data.get("prefactors", [])),
        **kwargs,
    )


@dataclass(frozen=True)
class CharacterPreset:
    name: str
    version: int
    declared_order: int
    offset: Fraction
    fermionic: FermionicSumSpec
    bosonic: BosonicSumSpec
    note: str = ""
    negative_control: bool = False

    @staticmethod
    def from_dict(data: dict) -> "CharacterPreset":
        for key in ("name", "version", "declared_order", "fermionic", "bosonic"):
            if key not in data:
                raise PresetFormatError(f"preset is missing required key {key!r}")
        order = json_int(data["declared_order"], "declared_order")
        if order < 1:
            raise PresetFormatError(
                "declared_order must be a positive integer; the registry "
                "refuses presets without a declared verification order")
        return CharacterPreset(
            name=str(data["name"]),
            version=json_int(data["version"], "version"),
            declared_order=order,
            offset=json_rational(data.get("offset", 0), "offset"),
            fermionic=_parse_fermionic(data["fermionic"]),
            bosonic=_parse_bosonic(data["bosonic"]),
            note=str(data.get("note", "")),
            negative_control=bool(data.get("negative_control", False)),
        )


@dataclass(frozen=True)
class CharacterReport:
    preset: str
    order: int
    fermionic: TruncatedSeries
    bosonic: TruncatedSeries
    comparison: SeriesComparison
    rescale_denominator: int

    @property
    def equal(self) -> bool:
        return self.comparison.equal

    def as_dict(self) -> dict:
        return {
            "preset": self.preset,
            "order": self.order,
            "fermionic": self.fermionic.to_json(),
            "bosonic": self.bosonic.to_json(),
            "rescale_denominator": self.rescale_denominator,
            **self.comparison.as_dict(),
        }


def _read_presets(directory: FilePath) -> dict[str, CharacterPreset]:
    presets = {}
    for path in sorted(directory.glob("*.json")):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                preset = CharacterPreset.from_dict(json.load(fh))
        except (OSError, KeyError, TypeError, AttributeError,
                ValueError, RecursionError) as exc:
            # an unreadable or too deeply nested file, or a missing or
            # mistyped field deep in it: all are a bad preset file
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise PresetFormatError(f"preset file {path}: {detail}") from None
        if preset.name in presets:
            raise PresetFormatError(f"duplicate preset name {preset.name!r}")
        presets[preset.name] = preset
    return presets


# Package data cannot change under a running process, so it is parsed once;
# an override directory is read by every registry, as a user may edit it.
_read_shipped = functools.cache(functools.partial(_read_presets, _BUILTIN_DIR))


class PresetRegistry:
    """Loads preset files from the built-in directory or an override."""

    def __init__(self, directory: Optional[str] = None):
        if directory is None:
            directory = os.environ.get(ENV_PRESET_DIR) or None
        self.directory = _BUILTIN_DIR if directory is None else FilePath(directory)
        self._presets = dict(_read_shipped() if directory is None
                             else _read_presets(self.directory))

    def names(self) -> list[str]:
        return sorted(self._presets)

    def get(self, name: str) -> CharacterPreset:
        try:
            return self._presets[name]
        except KeyError:
            raise UnknownPresetError(
                f"unknown preset {name!r}; available: {', '.join(self.names())}"
            ) from None

    def version_summary(self) -> str:
        return ",".join(f"{p.name}@{p.version}" for p in
                        map(self.get, self.names()))


def character(preset: CharacterPreset, order: Optional[int] = None) -> CharacterReport:
    """Evaluate both sides of a preset and compare to the requested order
    (default: the preset's declared order)."""
    n = preset.declared_order if order is None else order
    fermi = eval_fermionic(preset.fermionic, n).shift(preset.offset)
    bose = eval_bosonic(preset.bosonic, n).shift(preset.offset)
    comparison = compare_series(fermi, bose)
    d = lcm(fermi.step.denominator, bose.step.denominator,
            fermi.offset.denominator, bose.offset.denominator)
    return CharacterReport(preset.name, n, fermi, bose, comparison, d)
