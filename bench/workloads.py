"""Workloads of the peakforge benchmark and the checker that gates them.

A workload is an ordered list of steps, run one at a time in one fresh
interpreter.  Every step carries its known answer, so the checker can tell
a right verdict from a wrong one:

* a step at or under its subcommand's degree cap (``peakforge.cli.CAPS``)
  goes through ``peakforge.cli.main([..., "--format", "json"])``; its
  verdict is ``(exit status, "ok" field, detail)``, checked against
  ``(0, True, known detail)``;
* a step past a cap calls the library function that the subcommand calls
  and is checked against its known value.

The predicted Hilbert series are recomputed here from their closed forms,
independently of ``peakforge.peak.predicted_dimensions``.

Only ``products`` depends on the seed: it draws random degree-5 elements
of Sym for a cross-route check against the symmetric-group oracle.  The
other workloads are fixed enumerations.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("scan", "products", "symbolic")

# the seeded cross-route step of ``products``
ORACLE_DEGREE = 5
ORACLE_PAIRS = 16
ORACLE_SUPPORT = 6


@dataclass(frozen=True)
class Step:
    """One verification with its known answer.

    ``cap`` names the ``cli.CAPS`` entry that ``degree`` is measured
    against (None for a check no subcommand runs); ``via`` is ``"cli"``
    for steps at or under the cap and ``"library"`` for the others.
    """

    name: str
    via: str
    cap: str | None
    degree: int
    action: Callable[[], object]
    expected: object


def check(step: Step) -> dict:
    """Run one step and compare its verdict with the known answer.

    A step that raises, including a ``SystemExit`` from argument parsing or
    a cap refusal, is a failed check, not a crash of the run.
    """
    start = time.perf_counter()
    try:
        observed = step.action()
        error = None
    except (Exception, SystemExit) as exc:
        observed = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    record = {
        "step": step.name,
        "via": step.via,
        "cap": step.cap,
        "degree": step.degree,
        "seconds": seconds,
        "ok": error is None and observed == step.expected,
    }
    if not record["ok"]:
        record["error"] = error
        record["observed"] = repr(observed)[:400]
        record["expected"] = repr(step.expected)[:400]
    return record


# --------------------------------------------------------------------------
# Known answers


def series(numerator, denominator, n_max):
    """Power-series coefficients of numerator/denominator (integer lists,
    denominator constant term 1) up to t^n_max."""
    out = []
    for n in range(n_max + 1):
        c = numerator[n] if n < len(numerator) else 0
        for k in range(1, min(n, len(denominator) - 1) + 1):
            c -= denominator[k] * out[n - k]
        out.append(c)
    return out


def predicted_dims(algebra: str, r: int, n_max: int) -> list[int]:
    """Dimensions predicted by the source paper's Hilbert series."""
    if algebra in ("peak", "unital-peak"):
        den = [1] + [-1] * r
    else:
        den = [1] + [-2] * r
        if r % 2 == 0:
            den[r // 2] += 1
    num = [1] + [0] * (r - 1) + [-1] if algebra in ("peak", "mrsharp") else [1]
    return series(num, den, n_max)


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n, sorted."""
    out = []
    for mask in range(1 << max(n - 1, 0)):
        parts, size = [], 1
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        out.append(tuple(parts))
    return sorted(out)


# --------------------------------------------------------------------------
# Step constructors


def cli_verdict(argv: list[str], detail: Callable[[dict], object]):
    """Run one subcommand with JSON output; (exit status, ok, detail)."""
    from peakforge import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main(argv + ["--format", "json"])
    payload = json.loads(buffer.getvalue())
    return status, payload["ok"], detail(payload)


def cli_step(argv, cap, degree, detail, expected_detail) -> Step:
    return Step(
        name=" ".join(argv),
        via="cli",
        cap=cap,
        degree=degree,
        action=lambda: cli_verdict(argv, detail),
        expected=(0, True, expected_detail),
    )


def _dims(payload):
    return payload["report"]["dims"]


def _oks(payload):
    return [r["ok"] for r in payload["results"]]


def hilbert_step(algebra: str, r: int, n_max: int) -> Step:
    argv = ["hilbert", "--algebra", algebra, "--r", str(r), "--max-degree", str(n_max)]
    return cli_step(
        argv, f"hilbert/{algebra}", n_max, _dims, predicted_dims(algebra, r, n_max)
    )


def closure_step(algebra: str, degree: int, r: int | None = None) -> Step:
    argv = ["closure", "--algebra", algebra, "--degree", str(degree)]
    if r is not None:
        argv[3:3] = ["--r", str(r)]
    return cli_step(argv, f"closure/{algebra}", degree, _oks, [True] * (degree + 1))


def scan_steps(seed: int) -> list[Step]:
    from peakforge import peak

    steps = [
        Step(
            name="peak.hilbert_report mrsharp r=3 n<=7",
            via="library",
            cap="hilbert/mrsharp",
            degree=7,
            action=lambda: peak.hilbert_report("mrsharp", 3, 7).dims,
            expected=predicted_dims("mrsharp", 3, 7),
        ),
        hilbert_step("mrsharp", 2, 6),
        hilbert_step("mrsharp", 4, 6),
        hilbert_step("mrsharp-module", 3, 6),
    ]
    for r in range(2, 7):
        steps.append(hilbert_step("peak", r, 8))
        steps.append(hilbert_step("unital-peak", r, 8))
    return steps


def oracle_pairs(seed: int):
    """Seeded inputs of the cross-route step: pairs of ribbon expansions
    {composition: Fraction} of degree ORACLE_DEGREE."""
    rng = random.Random(seed)
    keys = compositions(ORACLE_DEGREE)

    def draw():
        terms = {}
        for key in rng.sample(keys, ORACLE_SUPPORT):
            numerator = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
            terms[key] = Fraction(numerator, rng.randint(1, 4))
        return terms

    return [(draw(), draw()) for _ in range(ORACLE_PAIRS)]


def oracle_cross_route(pairs) -> int:
    """Number of pairs (a, b) whose internal product maps to the opposite
    group product: sym_to_group(a * b) == sym_to_group(b) o sym_to_group(a)."""
    from peakforge import oracle, sym
    from peakforge.scalars import QQ

    agree = 0
    for a_terms, b_terms in pairs:
        a = sym.SymElement(QQ, sym.R, a_terms)
        b = sym.SymElement(QQ, sym.R, b_terms)
        lhs = oracle.sym_to_group(sym.internal_product(a, b), ORACLE_DEGREE)
        rhs = oracle.group_product(
            oracle.sym_to_group(b, ORACLE_DEGREE), oracle.sym_to_group(a, ORACLE_DEGREE)
        )
        agree += lhs.terms == rhs.terms
    return agree


def products_steps(seed: int) -> list[Step]:
    pairs = oracle_pairs(seed)
    steps = [
        closure_step("unital-peak", 6, r=3),
        closure_step("q-module", 4, r=3),
        closure_step("q-ring", 4, r=2),
        closure_step("bsym", 4),
        cli_step(
            ["oracle", "--group", "Sn", "--n", "5"],
            "oracle/Sn", 5, lambda p: p["failures"], [],
        ),
        cli_step(
            ["oracle", "--group", "Bn", "--n", "3"],
            "oracle/Bn", 3, lambda p: p["failures"], [],
        ),
    ]
    for q in ("1", "-1"):
        steps.append(
            cli_step(
                ["identities", "--q", q, "--max-degree", "8"],
                "identities", 8, lambda p: None, None,
            )
        )
    steps.append(
        Step(
            name=f"seeded sym_to_group cross-route, {ORACLE_PAIRS} pairs at n={ORACLE_DEGREE}",
            via="library",
            cap=None,
            degree=ORACLE_DEGREE,
            action=lambda: oracle_cross_route(pairs),
            expected=ORACLE_PAIRS,
        )
    )
    return steps


def symbolic_steps(seed: int) -> list[Step]:
    from peakforge import mr, peak

    def klyachko_match(n):
        return mr.klyachko_element(n, "closed_form") == mr.klyachko_element(
            n, "ribbon_sum"
        )

    return [
        # the inverse series has one nonzero term per colored composition
        # of degree at most 4: 3^4 terms
        cli_step(
            ["invert-sharp", "--max-degree", "4"],
            "invert-sharp", 4, lambda p: p["terms"], 3**4,
        ),
        Step(
            name="mr.klyachko_element n=6 closed_form == ribbon_sum",
            via="library",
            cap="klyachko",
            degree=6,
            action=lambda: klyachko_match(6),
            expected=True,
        ),
        cli_step(
            ["generators", "--max-degree", "5"], "generators", 5, _oks, [True] * 5
        ),
        Step(
            name="peak.generator_normalization_check n=6",
            via="library",
            cap="generators",
            degree=6,
            action=lambda: peak.generator_normalization_check(6),
            expected=True,
        ),
        cli_step(
            ["monomial", "--n", "7"],
            "monomial", 7,
            lambda p: [[r["monomial_expansion"], r["power_sum"]] for r in p["results"]],
            [[True, True]] * 7,
        ),
    ]


_BUILDERS = {"scan": scan_steps, "products": products_steps, "symbolic": symbolic_steps}


def build(workload: str, seed: int) -> list[Step]:
    return _BUILDERS[workload](seed)
