from .bailey import (INFINITY, BaileyPair, PairCheck, bailey_step,
                     rogers_ramanujan_seed, unit_bailey_pair,
                     verify_bailey_pair, weak_lemma)
from .sums import (AffineForm, BosonicSumSpec, Congruence, FermionicSumSpec,
                   NonTerminatingSumError, PochhammerFactor, SeriesComparison,
                   compare_series, eval_bosonic, eval_fermionic)
from .presets import (CharacterPreset, CharacterReport, PresetRegistry,
                      PresetFormatError, UnknownPresetError, character,
                      ENV_PRESET_DIR)
