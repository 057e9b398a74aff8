"""Seeded job lists for the four workloads, and the exact gate of every job.

A job is a JSON-serialisable list whose first item names its kind; the
whole list of a workload is generated from the seed alone, so the program
only ever sees generated inputs and two runs with one seed do the same
work.  Every gate is an explicit check that raises `GateError` (never an
`assert`, which `python -O` strips), and names the job's first differing
exponent or object.

The library is reached only through `LAYER_CALLS`: the runner hands each
job an `api` namespace holding either these callables or traced wrappers
of them, so the traced run records one span per call the benchmark makes
into a layer and nothing under `src/` is touched.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import qrigged.cli as cli
from qrigged.bijection import path_to_rc, rc_to_path
from qrigged.combinat import Composition
from qrigged.crystals import enumerate_paths, intrinsic_energy
from qrigged.kostka import KostkaInstance, fermionic_kostka_closed_form
from qrigged.qalg import IntPolynomial, TruncatedSeries, pochhammer_qq, \
    q_binomial
from qrigged.qseries.bailey import INFINITY, bailey_step, \
    rogers_ramanujan_seed, unit_bailey_pair, verify_bailey_pair, weak_lemma
from qrigged.qseries.presets import PresetRegistry
from qrigged.qseries.sums import compare_series, eval_bosonic, eval_fermionic
from qrigged.rc import MultiplicityArray, cocharge, enumerate_rc

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"


class GateError(Exception):
    """An exact correctness check of a job failed."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def poly_sum(exponents) -> IntPolynomial:
    """Sum of q^e over `exponents`, accumulated monomial by monomial as the
    library's own `path_kostka` and `fermionic_kostka` do."""
    total = IntPolynomial.zero()
    for e in exponents:
        total = total + IntPolynomial.monomial(e)
    return total


LAYER_CALLS = {
    "crystals.enumerate_paths": enumerate_paths,
    "crystals.intrinsic_energy": intrinsic_energy,
    "bijection.path_to_rc": path_to_rc,
    "bijection.rc_to_path": rc_to_path,
    "rc.enumerate_rc": enumerate_rc,
    "rc.cocharge": cocharge,
    "kostka.fermionic_kostka_closed_form": fermionic_kostka_closed_form,
    "qalg.IntPolynomial.sum": poly_sum,
    "qalg.q_binomial": q_binomial,
    "qalg.pochhammer_qq": pochhammer_qq,
    "qalg.TruncatedSeries.invert": TruncatedSeries.invert,
    "sums.eval_fermionic": eval_fermionic,
    "sums.eval_bosonic": eval_bosonic,
    "sums.compare_series": compare_series,
    "bailey.bailey_step": bailey_step,
    "bailey.weak_lemma": weak_lemma,
    "bailey.verify_bailey_pair": verify_bailey_pair,
    "presets.PresetRegistry": PresetRegistry,
    "cli.main": cli.main,
}


def make_api(wrap=None) -> SimpleNamespace:
    """Namespace of the layer calls keyed by their last name component,
    each passed through `wrap(span_name, fn)` when tracing."""
    return SimpleNamespace(**{
        name.rsplit(".", 1)[1]: wrap(name, fn) if wrap else fn
        for name, fn in LAYER_CALLS.items()})


def _poly_mismatch(label: str, a: IntPolynomial, b: IntPolynomial) -> None:
    if a != b:
        e = min((a - b).terms)
        raise GateError(f"{label}: first differing exponent {e}: "
                        f"{a.coefficient(e)} vs {b.coefficient(e)}")


# -- independent oracles --------------------------------------------------
# Computed by the benchmark from first principles, so a gate never compares
# the program only with itself.

def count_paths(widths, n: int, weight) -> int:
    """Tensor products of single rows of `widths` with content `weight`:
    the coefficient of x^weight in prod_i h_{widths[i]}(x_1..x_n)."""

    @lru_cache(maxsize=None)
    def ways(k: int, remaining: tuple) -> int:
        if k == len(widths):
            return int(not any(remaining))
        return sum(ways(k + 1, tuple(r - c for r, c in zip(remaining, row)))
                   for row in _row_contents(widths[k], n)
                   if all(c <= r for c, r in zip(row, remaining)))

    return ways(0, tuple(weight) + (0,) * (n - len(weight)))


@lru_cache(maxsize=None)
def _row_contents(width: int, n: int) -> tuple:
    if n == 1:
        return ((width,),)
    return tuple((first,) + rest for first in range(width + 1)
                 for rest in _row_contents(width - first, n - 1))


def partition_numbers(n: int) -> list[int]:
    """p(0..n) by Euler's pentagonal recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while True:
            g1, g2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def euler_coefficients(n: int) -> list[int]:
    """Coefficients of (q; q)_inf to q^n from the pentagonal number theorem."""
    c = [0] * (n + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= n:
        for g in {k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}:
            if g <= n:
                c[g] = -1 if k % 2 else 1
        k += 1
    return c


# -- kostka-grid and kostka-large -------------------------------------------

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _width_tuples(max_total: int, prefix=()):
    for s in range(1, max_total + 1):
        yield prefix + (s,)
        yield from _width_tuples(max_total - s, prefix + (s,))


def grid_jobs(rng: random.Random) -> list:
    """The acceptance grid exactly: ranks 2 and 3, every ordered list of
    row factors with at most six boxes, every weight; the seed shuffles the
    order."""
    jobs = [["kostka", list(widths), n, list(weight)]
            for n in (2, 3)
            for widths in _width_tuples(6)
            for weight in _compositions(sum(widths), n)]
    rng.shuffle(jobs)
    return jobs


# Long tensor products of mostly single boxes: (row widths, rank, weight).
# The seed only orders the jobs.  Permuting an instance's weight keeps its
# Kostka polynomial and object count but moves its cost by up to 7x, which
# would make the load depend on the seed.
LARGE_TEMPLATES = [
    ((1,) * 9, 3, (5, 3, 1)), ((1,) * 8, 3, (3, 3, 2)),
    ((1,) * 8, 3, (4, 2, 2)), ((1,) * 8, 3, (4, 3, 1)),
    ((1,) * 8, 3, (5, 2, 1)), ((1,) * 8, 3, (6, 1, 1)),
    ((2,) + (1,) * 6, 3, (3, 3, 2)), ((2,) + (1,) * 6, 3, (4, 2, 2)),
    ((2, 2) + (1,) * 4, 3, (3, 3, 2)), ((1,) * 7, 4, (3, 2, 1, 1)),
    ((1,) * 7, 4, (3, 2, 2, 0)), ((1,) * 7, 4, (4, 1, 1, 1)),
    ((2,) + (1,) * 5, 4, (2, 2, 2, 1)), ((2,) + (1,) * 5, 4, (3, 2, 1, 1)),
    ((2, 2) + (1,) * 3, 4, (2, 2, 2, 1)),
]


def large_jobs(rng: random.Random) -> list:
    jobs = [["kostka", list(widths), n, list(weight)]
            for widths, n, weight in LARGE_TEMPLATES]
    rng.shuffle(jobs)
    return jobs


def run_kostka(api, ctx, widths, n, weight) -> int:
    """Both sides of one instance and the bijection between their index
    sets.  Returns the number of verified path/rigged-configuration pairs."""
    widths = tuple(widths)
    L = MultiplicityArray.from_rows(widths, n)
    comp = Composition(tuple(weight))
    paths = api.enumerate_paths(widths, n, comp)
    expected = count_paths(widths, n, weight)
    gate(len(paths) == expected,
         f"enumerate_paths gave {len(paths)} paths, expected {expected}")
    energies = [api.intrinsic_energy(p) for p in paths]
    image: dict = {}
    for p in paths:
        rc = api.path_to_rc(p)
        if rc in image:
            raise GateError(f"path_to_rc not injective: {p} and {image[rc]}")
        image[rc] = p
        back = api.rc_to_path(rc, L, widths)
        if back != p:
            raise GateError(f"path -> rc -> path sent {p} to {back}")
    rcs = api.enumerate_rc(L, comp)
    rc_set = set(rcs)
    gate(len(rc_set) == len(rcs), "enumerate_rc listed an object twice")
    stray = rc_set.symmetric_difference(image)
    gate(not stray, "bijection image differs from enumerate_rc at "
         f"{min(map(str, stray)) if stray else ''}")
    # rc -> path -> rc needs no second pass: every rc of enumerate_rc is the
    # image of exactly one path, which was just shown to map back to it.
    fermionic = api.sum([api.cocharge(rc) for rc in rcs])
    closed = api.fermionic_kostka_closed_form(KostkaInstance(L, comp))
    _poly_mismatch("enumeration vs closed form", fermionic, closed)
    # The path side uses energies only, never rc or bijection.
    _poly_mismatch("fermionic vs path", fermionic, api.sum(energies))
    at_one = closed.evaluate_at_one()
    gate(at_one == len(paths), f"q=1 count {at_one} != {len(paths)} objects")
    return len(paths)


# -- qseries ----------------------------------------------------------------

# Shipped presets and whether each is a negative control.
PRESETS = {
    "control-gg-perturbed": True, "control-rr-mismatch": True,
    "euler-distinct-parts": False, "gollnitz-gordon-1": False,
    "gollnitz-gordon-2": False, "lebesgue": False, "n1-sm28-vacuum": False,
    "rogers-ramanujan-1": False, "rogers-ramanujan-2": False,
    "rogers-selberg-7": False, "virasoro-m25-vacuum": False,
}


def qseries_jobs(rng: random.Random) -> list:
    """Every preset at order 110, the Bailey chain with infinite and finite
    (1/d grid) parameters, and two kernel jobs; the seed orders the jobs.
    Each pass first loads the preset registry."""
    jobs = [["preset", name, 110] for name in PRESETS]
    jobs += [["weak", 0, 90], ["weak", 1, 60], ["weak", 2, 40],
             ["weak-finite", "1/2", 40], ["weak-finite", "1/3", 30],
             ["verify", "unit", 24, 10], ["verify", "stepped", 24, 8],
             ["qbinom", 64], ["pochhammer", 200]]
    rng.shuffle(jobs)
    return [["registry"]] + jobs


def run_registry(api, ctx) -> int:
    """Load the presets for the pass; no coefficients are compared."""
    registry = api.PresetRegistry()
    names = registry.names()
    gate(names == sorted(PRESETS), f"preset registry holds {names}")
    for name, control in PRESETS.items():
        gate(registry.get(name).negative_control == control,
             f"{name}: negative_control flag changed")
    ctx["registry"] = registry
    return 0


def _compare(api, label: str, a, b, expect_equal: bool = True) -> int:
    verdict = api.compare_series(a, b)
    if verdict.equal != expect_equal:
        where = "" if verdict.equal else \
            f" first differing exponent {verdict.first_difference}: " \
            f"{verdict.left_coefficient} vs {verdict.right_coefficient}"
        raise GateError(f"{label}: equal={verdict.equal}, "
                        f"expected {expect_equal}{where}")
    if not expect_equal:
        gate(verdict.first_difference is not None,
             f"{label}: unequal without a first difference")
    return len(a.coeffs) + len(b.coeffs)


def run_preset(api, ctx, name, order) -> int:
    preset = ctx["registry"].get(name)
    fermi = api.eval_fermionic(preset.fermionic, order).shift(preset.offset)
    bose = api.eval_bosonic(preset.bosonic, order).shift(preset.offset)
    return _compare(api, name, fermi, bose, expect_equal=not PRESETS[name])


def run_weak(api, ctx, steps, order) -> int:
    pair = rogers_ramanujan_seed()
    for _ in range(steps):
        pair = api.bailey_step(pair, INFINITY, INFINITY)
    lhs, rhs = api.weak_lemma(pair, order)
    return _compare(api, f"weak limit after {steps} steps", lhs, rhs)


def run_weak_finite(api, ctx, rho, order) -> int:
    pair = api.bailey_step(rogers_ramanujan_seed(), Fraction(rho), INFINITY)
    lhs, rhs = api.weak_lemma(pair, order)
    return _compare(api, f"weak limit after a rho={rho} step", lhs, rhs)


def run_verify(api, ctx, which, order, max_n) -> int:
    pair = unit_bailey_pair() if which == "unit" else \
        api.bailey_step(rogers_ramanujan_seed(), INFINITY, INFINITY)
    check = api.verify_bailey_pair(pair, order, max_n=max_n)
    gate(check.valid, f"{which} pair invalid at n={check.failing_n}, "
         f"exponent {check.failing_exponent}")
    gate(check.checked_n == max_n,
         f"{which} pair checked to n={check.checked_n}, asked {max_n}")
    return (max_n + 1) * (order + 1)


def run_qbinom(api, ctx, m) -> int:
    k = m // 2
    poly = api.q_binomial(m, k)
    at_one, degree = poly.evaluate_at_one(), poly.degree()
    gate(at_one == math.comb(m, k), f"[{m} choose {k}] at q=1 is {at_one}")
    gate(degree == k * (m - k), f"[{m} choose {k}] has degree {degree}")
    gate(poly.is_palindromic(), f"[{m} choose {k}] is not palindromic")
    return len(poly.terms)


def run_pochhammer(api, ctx, order) -> int:
    product = api.pochhammer_qq(None, order)
    inverse = api.invert(product)
    for label, series, want in (
            ("(q;q)_inf", product, euler_coefficients(order)),
            ("1/(q;q)_inf", inverse, partition_numbers(order))):
        got = list(series.coeffs)
        if got != want:
            i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                     min(len(got), len(want)))
            raise GateError(f"{label}: first differing exponent {i}")
    return 2 * (order + 1)


# -- cli --------------------------------------------------------------------

# The golden invocations pinned by the CLI tests, one per subcommand.
GOLDEN = {
    "kostka": ["kostka", "--shapes", "1x1,1x1", "--n", "2",
               "--weight", "1,1", "--side", "both"],
    "rc-list": ["rc-list", "--shapes", "1x1,1x1", "--n", "2", "--weight", "1,1"],
    "paths": ["paths", "--shapes", "1x1,1x1,1x1", "--n", "3", "--weight", "1,1,1"],
    "bijection": ["bijection", "--n", "2", "--path", "12(x)1"],
    "qbinom": ["qbinom", "4", "2"],
    "pochhammer": ["pochhammer", "--length", "inf", "--order", "7"],
    "character": ["character", "--preset", "rogers-ramanujan-1", "--order", "30"],
    "bailey": ["bailey", "--mode", "verify", "--pair", "unit",
               "--order", "12", "--max-n", "6"],
    "compare": ["compare", "--preset-a", "rogers-ramanujan-1",
                "--preset-b", "rogers-ramanujan-1", "--order", "25"],
}
GOLDEN_REPEATS = 11


@lru_cache(maxsize=None)
def golden_bytes(name: str) -> bytes:
    return (GOLDEN_DIR / f"{name}.json").read_bytes()


def _rows(widths) -> str:
    return ",".join(f"1x{w}" for w in widths)


def cli_jobs(rng: random.Random) -> list:
    """Golden cases, heavier subcommands and contract-conforming invalid
    input, as repeated in-process `cli.main` calls."""
    jobs = [["golden", name] for name in GOLDEN for _ in range(GOLDEN_REPEATS)]
    jobs.append(["kostka-both", [1] * 8, 3, [3, 3, 2]])
    widths = [2, 1, 1, 1]
    rng.shuffle(widths)
    jobs.append(["bijection-check", widths, 3, [2, 2, 1]])
    jobs.append(["character", "rogers-ramanujan-2", 100 + rng.randrange(3)])
    jobs.append(["bailey-weak", 1, 40 + rng.randrange(3)])
    jobs.append(["exit", ["character", "--preset",
                          f"no-such-preset-{rng.randrange(1000)}"],
                 cli.EXIT_UNKNOWN_PRESET])
    jobs.append(["exit", ["kostka", "--shapes", "2x1", "--n", "2",
                          "--weight", "1,1"], cli.EXIT_UNSUPPORTED])
    rng.shuffle(jobs)
    return jobs


def call_cli(api, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = api.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_result(api, argv, label: str) -> tuple[dict, int]:
    """The result payload of a successful call, and its output size."""
    code, out, err = call_cli(api, argv)
    gate(code == cli.EXIT_OK, f"{label}: exit {code}: {err.strip()[-200:]}")
    return json.loads(out)["result"], len(out.encode())


def run_golden(api, ctx, name) -> int:
    """Byte-exact comparison with the golden file the CLI tests pin."""
    code, out, err = call_cli(api, GOLDEN[name])
    data, want = out.encode(), golden_bytes(name)
    gate(code == cli.EXIT_OK, f"golden {name}: exit {code}")
    if data != want:
        i = next((i for i, (a, b) in enumerate(zip(data, want)) if a != b),
                 min(len(data), len(want)))
        raise GateError(f"golden {name}: output differs from byte {i}")
    return len(data)


def run_kostka_both(api, ctx, widths, n, weight) -> int:
    argv = ["kostka", "--shapes", _rows(widths), "--n", str(n),
            "--weight", ",".join(map(str, weight)), "--side", "both"]
    result, size = _cli_result(api, argv, "kostka --side both")
    gate(result["equal"] is True, "kostka --side both: not equal")
    gate(result["fermionic"]["terms"] == result["path"]["terms"],
         "kostka --side both: sides differ")
    count = sum(int(c) for _, c in result["fermionic"]["terms"])
    expected = count_paths(widths, n, weight)
    gate(count == expected, f"kostka --side both: q=1 count {count} != {expected}")
    return size


def run_bijection_check(api, ctx, widths, n, weight) -> int:
    argv = ["bijection", "--shapes", _rows(widths), "--n", str(n),
            "--weight", ",".join(map(str, weight)), "--check"]
    result, size = _cli_result(api, argv, "bijection --check")
    expected = count_paths(widths, n, weight)
    gate(result.get("roundtrip") == "ok" and result.get("statistic") == "ok",
         f"bijection --check: {result}")
    gate(result["paths"] == expected,
         f"bijection --check: {result['paths']} paths, expected {expected}")
    return size


def run_character(api, ctx, preset, order) -> int:
    argv = ["character", "--preset", preset, "--order", str(order)]
    result, size = _cli_result(api, argv, f"character {preset}")
    gate(result["equal"] is True, f"character {preset}: not equal")
    return size


def run_bailey_weak(api, ctx, steps, order) -> int:
    argv = ["bailey", "--mode", "weak-limit", "--pair", "rogers-ramanujan-seed",
            "--steps", str(steps), "--order", str(order)]
    result, size = _cli_result(api, argv, "bailey --mode weak-limit")
    gate(result["equal"] is True, "bailey weak limit: sides differ")
    return size


def run_exit(api, ctx, argv, expected) -> int:
    code, out, err = call_cli(api, argv)
    gate(code == expected, f"{' '.join(argv)}: exit {code}, expected {expected}")
    gate(not out and err.startswith("error:"),
         f"{' '.join(argv)}: expected only an error line on stderr")
    return len(err.encode())


RUNNERS = {
    "kostka": run_kostka, "registry": run_registry, "preset": run_preset,
    "weak": run_weak, "weak-finite": run_weak_finite, "verify": run_verify,
    "qbinom": run_qbinom, "pochhammer": run_pochhammer,
    "golden": run_golden, "kostka-both": run_kostka_both,
    "bijection-check": run_bijection_check, "character": run_character,
    "bailey-weak": run_bailey_weak, "exit": run_exit,
}


# name: (job list generator, unit of the work count, job_tail_ms percentile)
WORKLOADS = {
    "kostka-grid": (grid_jobs, "objects", 0.99),
    "kostka-large": (large_jobs, "objects", 0.75),
    "qseries": (qseries_jobs, "coeffs", 0.75),
    "cli": (cli_jobs, "bytes", 0.90),
}


def make_jobs(workload: str, seed: int) -> list:
    return WORKLOADS[workload][0](random.Random(f"{workload}:{seed}"))


def run_job(api, ctx, job) -> int:
    """Run one job through its gate; returns its work count."""
    return RUNNERS[job[0]](api, ctx, *job[1:])
