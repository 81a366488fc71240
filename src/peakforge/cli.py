"""Command-line entry point.

Every verification in the package is exposed as a subcommand with
deterministic, machine-readable output.  Exit status 0 means every check
requested by the invocation passed; mismatches exit 1, and with
``--format json`` or ``--out`` their report carries the diff.  Invalid
input, including a degree above its subcommand's cap (exact arithmetic cost
grows steeply with the degree), is a usage error: a one-line message and
exit status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import fqsym, mr, oracle, peak, sym
from .combinatorics import (
    format_colored_composition,
    format_composition,
    major_index,
    merged_shape,
    parse_colored_composition,
    permutations,
    flag_major_index,
    flag_major_index_by_weights,
    part_weights,
    standardized_shape,
)
from .scalars import QQ, QQq, scalar_str

SCHEMA = "peakforge/1"

CAPS = {
    "hilbert/peak": 8,
    "hilbert/unital-peak": 8,
    "hilbert/mrsharp": 6,
    "hilbert/mrsharp-module": 6,
    "closure/unital-peak": 6,
    "closure/q-ring": 4,
    "closure/q-module": 4,
    "closure/bsym": 4,
    "klyachko": 5,
    "monomial": 7,
    "oracle/Sn": 5,
    "oracle/Bn": 4,
    "invert-sharp": 6,
    "generators": 5,
    "identities": 8,
}


class UsageError(Exception):
    """Invalid input that argument parsing alone cannot catch."""


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def integer(text):
        value = int(text)  # argparse reports a ValueError as an invalid integer
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _report_path(text):
    """An argparse type: a nonempty file path in an existing, writable directory."""
    folder = os.path.dirname(text) or "."
    writable = os.path.isdir(folder) and os.access(folder, os.W_OK)
    if not text or os.path.isdir(text) or not writable:
        raise argparse.ArgumentTypeError(f"cannot write a report to {text!r}")
    return text


def _cap(args_value: int, key: str, what: str):
    cap = CAPS[key]
    if args_value > cap:
        raise UsageError(
            f"{what} {args_value} exceeds the documented cap {cap} "
            f"for {key} (exact-arithmetic cost)"
        )


def _element_lines(element) -> list[str]:
    lines = []
    for key in sorted(element.terms):
        lines.append(
            f"  {scalar_str(element.terms[key])} * R[{element.key_str(key)}]"
        )
    return lines


def cmd_hilbert(args):
    _cap(args.max_degree, f"hilbert/{args.algebra}", "--max-degree")
    if args.algebra == peak.MR_SHARP_MODULE:
        report = peak.sharp_module_report(args.r, args.max_degree)
        lines = [f"algebra={args.algebra} r={args.r}", f"dims: {report['dims']}"]
        for cand in report["candidates"]:
            lines.append(
                f"  candidate {cand['source']}: {cand['values']}"
                f" match={cand['match']}"
            )
        # open question: reported, never gated
        return True, {"report": report}, lines
    report = peak.hilbert_report(args.algebra, args.r, args.max_degree)
    lines = [
        f"algebra={args.algebra} r={args.r}",
        f"computed:  {report.dims}",
        f"predicted: {report.predicted}  [{report.predicted_source}]",
        f"match: {report.match}",
    ]
    payload = {"report": report.to_json()}
    ok = report.match
    if args.algebra == peak.MR_SHARP:
        # conjectured generator counting is cheap, so scan it further out
        count_degree = max(args.max_degree, 8)
        counts = [
            peak.conjectured_generator_count(n, args.r)
            for n in range(count_degree + 1)
        ]
        _, predicted = peak.predicted_dimensions(peak.MR_SHARP, args.r, count_degree)
        counts_match = counts == predicted
        payload["generator_counts"] = {
            "values": counts,
            "predicted": predicted,
            "match": counts_match,
        }
        lines.append(f"part counting to degree {count_degree}: {counts}")
        lines.append(f"counting match: {counts_match}")
        ok = ok and counts_match
    return ok, payload, lines


def cmd_closure(args):
    _cap(args.degree, f"closure/{args.algebra}", "--degree")
    if args.algebra == "bsym" and args.r != 2:
        raise UsageError(f"closure bsym is the q-ring at r = 2, not --r {args.r}")
    results = []
    ok_all = True
    for n in range(args.degree + 1):
        if args.algebra == "unital-peak":
            ok, witness = peak.closure_check(peak.unital_peak_subspace(n, args.r))
        elif args.algebra == "q-ring":
            ok, witness = peak.closure_check(peak.mr_sharp_module_subspace(n, args.r))
        elif args.algebra == "q-module":
            ok, witness = peak.closure_check(peak.mr_sharp_subspace(n, args.r), ideal=True)
        else:  # bsym
            ok, witness = peak.bsym_closure_check(n)
        ok_all = ok_all and ok
        results.append(
            {
                "degree": n,
                "ok": ok,
                "witness": witness,
            }
        )
    lines = [f"closure algebra={args.algebra} r={args.r}"] + [
        f"  degree {r['degree']}: {'closed' if r['ok'] else 'NOT closed: ' + r['witness']}"
        for r in results
    ]
    return ok_all, {"results": results}, lines


def cmd_klyachko(args):
    _cap(args.n, "klyachko", "--n")
    closed = mr.klyachko_element(args.n, "closed_form")
    lines = [f"K_{args.n}(q) ="] + _element_lines(closed)
    payload = {"element": closed.to_json_dict()}
    ok = True
    if args.check:
        ribbon = mr.klyachko_element(args.n, "ribbon_sum")
        ok = closed == ribbon
        lines.append(f"match: {ok}")
        payload["match"] = ok
        if not ok:
            payload["ribbon_sum"] = ribbon.to_json_dict()
    return ok, payload, lines


def cmd_bmaj(args):
    try:
        jc = parse_colored_composition(args.composition, args.colors)
    except ValueError:
        raise UsageError(
            f"argument --composition: not a colored composition of level "
            f"{args.colors}: {args.composition!r}"
        ) from None
    weights = part_weights(jc, args.colors)
    by_weights = flag_major_index_by_weights(jc, args.colors)
    payload = {
        "composition": format_colored_composition(jc, args.colors),
        "weights": list(weights),
        "bmaj": by_weights,
    }
    lines = [f"weights: {','.join(str(w) for w in weights)}"]
    ok = True
    if args.colors == 2:
        shape = standardized_shape(jc)
        by_shape = flag_major_index(jc)
        ok = by_shape == by_weights and merged_shape(jc) == shape
        payload.update(
            {
                "rho": format_composition(shape),
                "maj_rho": major_index(shape),
                "bmaj_by_shape": by_shape,
                "consistent": ok,
            }
        )
        lines.append(f"rho: {format_composition(shape)} (maj {major_index(shape)})")
    lines.append(f"bmaj: {by_weights}")
    return ok, payload, lines


def cmd_monomial(args):
    _cap(args.n, "monomial", "--n")
    q = QQq.q
    results = []
    ok_all = True
    for n in range(1, args.n + 1):
        lhs = fqsym.convert(
            sym.to_fqsym(sym.one_minus_q_transform(sym.monomial(QQq, (n,)), q)),
            fqsym.M,
        )
        rhs = fqsym.complete_monomial_expansion(n, q)
        ok_m = lhs == rhs
        psi = fqsym.convert(sym.to_fqsym(sym.power_sum(n, QQ)), fqsym.M)
        expected = {p for p in permutations(n) if p[0] == 1}
        ok_psi = set(psi.terms) == expected and all(
            c == 1 for c in psi.terms.values()
        )
        ok_all = ok_all and ok_m and ok_psi
        results.append({"n": n, "monomial_expansion": ok_m, "power_sum": ok_psi})
    lines = [
        f"  n={r['n']}: monomial expansion {r['monomial_expansion']}, "
        f"power sum {r['power_sum']}"
        for r in results
    ]
    return ok_all, {"results": results}, lines


def cmd_oracle(args):
    _cap(args.n, f"oracle/{args.group}", "--n")
    if args.group == "Sn":
        ok, failures = oracle.verify_descent_antimorphism(args.n)
    else:
        ok, failures = oracle.verify_signed_antimorphism(args.n)
    lines = [
        f"group={args.group} n={args.n}: "
        + ("anti-isomorphism verified" if ok else f"{len(failures)} failures")
    ]
    lines += [f"  {f}" for f in failures[:10]]
    payload = {"ok": ok, "failures": failures[:10]}
    return ok, payload, lines


def cmd_invert_sharp(args):
    _cap(args.max_degree, "invert-sharp", "--max-degree")
    # g * sharp == sigma degree by degree, each degree n scaled by the c_n
    # that clears the denominators of g_n: the internal product is bilinear
    # and keeps degrees, and c_n != 0, so the check stays exact
    sharp = mr.superization_series(QQq.q, args.max_degree)
    sigma = mr.sigma_series(QQq, args.max_degree)
    ok, terms = True, 0
    for n in range(args.max_degree + 1):
        c, g = mr.cleared_inverse_component(n)
        terms += len(g.terms)
        ok = ok and mr.internal_product(g, sharp.homogeneous(n)) == (
            sigma.homogeneous(n).scaled(c)
        )
    lines = [
        f"inverse series through degree {args.max_degree}: {terms} terms",
        f"g * sharp-series == sigma: {ok}",
    ]
    return ok, {"ok": ok, "terms": terms}, lines


def cmd_generators(args):
    _cap(args.max_degree, "generators", "--max-degree")
    results = []
    ok_all = True
    for n in range(1, args.max_degree + 1):
        ok = peak.generator_normalization_check(n, args.r)
        ok_all = ok_all and ok
        results.append({"n": n, "ok": ok})
    where = "generic q" if args.r is None else f"r={args.r}"
    lines = [f"generator normalization at {where}:"] + [
        f"  n={r['n']}: {r['ok']}" for r in results
    ]
    return ok_all, {"results": results}, lines


def cmd_identities(args):
    _cap(args.max_degree, "identities", "--max-degree")
    ok, _, _ = peak.pm_one_identity_check(args.q, args.max_degree)
    name = "f^2 = g^2 + 4" if args.q == 1 else "(f+2)^2 = g^2 + 4"
    lines = [f"q={args.q}: {name} up to degree {args.max_degree}: {ok}"]
    return ok, {"ok": ok}, lines


def _terminal_width() -> int:
    """The columns of ``shutil.get_terminal_size()``, read with ``os``
    alone: importing shutil imports compression modules no run uses."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
    except (AttributeError, ValueError, OSError):
        columns = 0
    return columns or 80


class _HelpFormatter(argparse.HelpFormatter):
    """The stock formatter, given the width it would read through shutil."""

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        if width is None:
            width = _terminal_width() - 2
        super().__init__(prog, indent_increment, max_help_position, width)


class _Parser(argparse.ArgumentParser):
    """A parser formatting with :class:`_HelpFormatter`; its subparsers are
    of this class too, since ``add_subparsers`` defaults to the parent's."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", _HelpFormatter)
        super().__init__(*args, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="peakforge",
        description="Exact verification suite for peak algebras and their level-2 analogues",
    )
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table")
    common.add_argument(
        "--out", type=_report_path, metavar="FILE", help="also write the JSON report here"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(fn=fn)
        return p

    p = command("hilbert", cmd_hilbert, "dimension scan of a graded subspace")
    p.add_argument("--algebra", required=True, choices=peak.ALGEBRAS)
    p.add_argument("--r", type=_at_least(1), required=True)
    p.add_argument("--max-degree", type=_at_least(0), required=True)

    p = command("closure", cmd_closure, "internal-product closure checks")
    p.add_argument(
        "--algebra",
        required=True,
        choices=("unital-peak", "q-ring", "q-module", "bsym"),
    )
    p.add_argument("--r", type=_at_least(1), default=2)
    p.add_argument("--degree", type=_at_least(0), required=True)

    p = command("klyachko", cmd_klyachko, "type-B q-Klyachko element")
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--check", action="store_true")

    p = command("bmaj", cmd_bmaj, "flag major index of a colored composition")
    p.add_argument("--composition", required=True)
    p.add_argument("--colors", type=_at_least(1), default=2)

    p = command("monomial", cmd_monomial, "monomial expansion identities")
    p.add_argument("--n", type=_at_least(1), required=True)

    p = command("oracle", cmd_oracle, "group-algebra anti-isomorphism checks")
    p.add_argument("--group", required=True, choices=("Sn", "Bn"))
    p.add_argument("--n", type=_at_least(1), required=True)

    p = command("invert-sharp", cmd_invert_sharp, "inverse of the generic superization")
    p.add_argument("--max-degree", type=_at_least(0), required=True)

    p = command("generators", cmd_generators, "generator normalization check")
    p.add_argument("--r", type=_at_least(1), default=None)
    p.add_argument("--max-degree", type=_at_least(1), required=True)

    p = command("identities", cmd_identities, "q = +1 / -1 series identities")
    p.add_argument("--q", type=int, required=True, choices=(1, -1))
    p.add_argument("--max-degree", type=_at_least(0), required=True)

    return parser


# the parser of main, built on first use and reused by every later call:
# in-process callers, such as the benchmark's steps, call main many times
_parser = cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        ok, payload, lines = args.fn(args)
    except UsageError as exc:
        parser.error(str(exc))
    envelope = {
        "schema": SCHEMA,
        "command": args.command,
        "ok": ok,
    }
    envelope.update(payload)
    if args.format == "json" or args.out:
        text = json.dumps(envelope, indent=2, sort_keys=True)
    if args.format == "json":
        print(text)
    else:
        for line in lines:
            print(line)
        print("ok" if ok else "FAILED")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
