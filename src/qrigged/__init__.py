"""Exact computation of unrestricted Kostka polynomials two independent
ways (fermionic sums over rigged configurations, energy sums over crystal
paths) and truncated q-series identity verification (Bailey machinery,
fermionic/bosonic character sums)."""

__version__ = "0.1.0"

from .qalg import (IntPolynomial, PochhammerSpec, TruncatedSeries,
                   NonInvertibleSeriesError, DivergentProductError,
                   pochhammer, pochhammer_qq, q_binomial)
from .combinat import Composition, Partition
from .crystals import (Path, e_op, enumerate_paths, f_op, intrinsic_energy,
                       is_highest_weight, local_energy, r_matrix)
from .rc import (Configuration, InvalidRiggedConfigurationError,
                 MultiplicityArray, RiggedConfiguration,
                 UnsupportedFactorShapeError, cocharge, enumerate_rc,
                 lower_bound, rc_from_json, rc_to_json, validate, vacancy)
from .bijection import path_to_rc, rc_to_path
from .kostka import (GLOBAL_NORMALIZATION, KostkaInstance,
                     fermionic_kostka, fermionic_kostka_closed_form,
                     kostka_foulkes_via_paths, path_kostka, restricted_kostka)
