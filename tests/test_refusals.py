"""Input checks that no other test reaches: each refusal of input from
outside its function, with its exception class and message.  Written
without assert, so that it also checks under python -O."""
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path as FilePath

import pytest

from oracles import charge, kostka_foulkes, kostka_number
from qrigged.combinat import Composition, Partition
from qrigged.crystals import Path, e_op, enumerate_paths
from qrigged.qalg import PochhammerSpec, TruncatedSeries, pochhammer, q_binomial
from qrigged.qseries.bailey import (rogers_ramanujan_seed, unit_bailey_pair,
                                    verify_bailey_pair)
from qrigged.qseries.presets import (CharacterPreset, PresetFormatError,
                                     PresetRegistry)
from qrigged.qseries.sums import (AffineForm, BosonicSumSpec,
                                  FermionicSumSpec, PochhammerFactor,
                                  eval_bosonic, eval_fermionic)
from qrigged.rc import (Configuration, InvalidRiggedConfigurationError,
                        MultiplicityArray, rc_from_json)

PRESET = {"name": "x", "version": 1, "declared_order": 30,
          "fermionic": {"dim": 0}, "bosonic": {}}


def _two_presets_named_alike():
    with tempfile.TemporaryDirectory() as directory:
        for name in ("a.json", "b.json"):
            (FilePath(directory) / name).write_text(json.dumps(PRESET))
        PresetRegistry(directory)


REFUSALS = {
    # combinat
    "partition-part": (lambda: Partition((1, 0)), ValueError,
                       "partition parts must be positive, got 0"),
    "partition-order": (lambda: Partition((1, 2)), ValueError,
                        "parts must weakly decrease: (1, 2)"),
    "composition-part": (lambda: Composition((1, -1)), ValueError,
                         "composition parts must be nonnegative: (1, -1)"),
    # the classical oracle
    "charge-letter": (lambda: charge((0,)), ValueError,
                      "letters must be positive"),
    "kostka-foulkes-sizes": (
        lambda: kostka_foulkes(Partition((2,)), Partition((1,))),
        ValueError, "shape and content sizes differ"),
    "kostka-number-sizes": (
        lambda: kostka_number(Partition((2,)), Composition((1,))),
        ValueError, "shape and content sizes differ"),
    # qalg
    "q-binomial-m": (lambda: q_binomial(-1, 0), ValueError,
                     "m must be nonnegative"),
    "series-empty": (lambda: TruncatedSeries(()), ValueError,
                     "a truncated series needs at least one coefficient"),
    "series-step": (lambda: TruncatedSeries((1,), F(0), F(2, 3)), ValueError,
                    "step must be 1/d for a positive integer d"),
    "pochhammer-length": (lambda: PochhammerSpec(length=-1), ValueError,
                          "length must be nonnegative"),
    "pochhammer-order": (lambda: pochhammer(PochhammerSpec(), -1), ValueError,
                         "order must be nonnegative"),
    # sums
    "factor-power": (lambda: PochhammerFactor(1, F(1), F(1), None, 2),
                     ValueError, "factor power must be +1 or -1"),
    "fermionic-dim": (lambda: FermionicSumSpec(-1, (), (), F(0)), ValueError,
                      "dim must be nonnegative"),
    "fermionic-shape": (lambda: FermionicSumSpec(1, ((1, 0),), (0,), F(0)),
                        ValueError, "quadratic matrix has the wrong shape"),
    "fermionic-linear": (lambda: FermionicSumSpec(1, ((1,),), (), F(0)),
                         ValueError, "linear vector has the wrong length"),
    "fermionic-symmetric": (
        lambda: FermionicSumSpec(2, ((1, 1), (0, 1)), (0, 0), F(0)),
        ValueError, "quadratic matrix must be symmetric"),
    "eval-fermionic-order": (
        lambda: eval_fermionic(FermionicSumSpec(1, ((2,),), (-3,), F(0)), -1),
        ValueError, "order must be nonnegative"),
    "eval-bosonic-order": (lambda: eval_bosonic(BosonicSumSpec(), -1),
                           ValueError, "order must be nonnegative"),
    "bosonic-parity": (lambda: BosonicSumSpec(parity=2), ValueError,
                       "parity must be 0 or 1"),
    "bosonic-prefactor-length": (
        lambda: BosonicSumSpec(prefactors=(PochhammerFactor(
            1, F(1), F(1), AffineForm(F(0), (F(1),)), 1),)),
        ValueError, "bosonic prefactor lengths must be constant"),
    # rc
    "multiplicity-width": (lambda: MultiplicityArray({(1, 0): 1}, 2),
                           ValueError, "rectangle width 0 must be positive"),
    "multiplicity-count": (lambda: MultiplicityArray({(1, 1): -1}, 2),
                           ValueError, "multiplicities must be nonnegative"),
    "configuration-order": (lambda: Configuration(((1, 2),)), ValueError,
                            "parts must weakly decrease"),
    "rc-json-levels": (
        lambda: rc_from_json([], MultiplicityArray({(1, 1): 1}, 3)),
        InvalidRiggedConfigurationError, "expected 2 levels, got 0"),
    # presets
    "preset-affine-length": (
        lambda: CharacterPreset.from_dict(
            {**PRESET, "fermionic": {"dim": 0, "inequalities": [[0, 1]]}}),
        PresetFormatError, "affine form needs 1 coefficients (constant first)"),
    "preset-declared-order": (
        lambda: CharacterPreset.from_dict({**PRESET, "declared_order": 0}),
        PresetFormatError,
        "declared_order must be a positive integer; the registry refuses "
        "presets without a declared verification order"),
    "preset-duplicate-name": (_two_presets_named_alike, PresetFormatError,
                              "duplicate preset name 'x'"),
    # bailey
    "bailey-base": (lambda: verify_bailey_pair(unit_bailey_pair(-1), 2, 2),
                    ValueError,
                    "base q^-1: aq = q^0 must have positive exponent"),
    "bailey-table-order": (lambda: rogers_ramanujan_seed().table(-1, 0),
                           ValueError, "order must be nonnegative"),
    "bailey-unit-table-order": (lambda: unit_bailey_pair().table(-1, 0),
                                ValueError, "order must be nonnegative"),
    # crystals
    "e-op-index": (lambda: e_op(Path([(1, 2)], 2), 0), ValueError,
                   "index 0 out of range 1..1"),
    "paths-width": (lambda: enumerate_paths((0,), 2, Composition(())),
                    ValueError, "row widths must be positive"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_input_is_refused(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as caught:
        call()
    if type(caught.value) is not error or str(caught.value) != message:
        pytest.fail(f"{caught.value!r}, not {error.__name__}({message!r})")
