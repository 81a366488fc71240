import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from peakforge import cli, mr, peak
from peakforge.cli import CAPS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_klyachko_check(capsys):
    code, data = run_json(capsys, "klyachko", "--n", "2", "--check")
    assert code == 0
    assert data["schema"] == "peakforge/1"
    assert data["match"] is True
    assert len(data["element"]["terms"]) == 6


def test_klyachko_table_output(capsys):
    code, out = run_cli(capsys, "klyachko", "--n", "2", "--check")
    assert code == 0
    assert "match: True" in out
    assert out.strip().endswith("ok")


def test_klyachko_check_reports_a_mismatch(capsys, monkeypatch):
    # the ribbon route with one coefficient perturbed: --check must fail
    original = mr.klyachko_element

    def perturbed(n, mode="closed_form"):
        element = original(n, mode)
        if mode == "ribbon_sum":
            terms = dict(element.terms)
            key = min(terms)
            terms[key] = terms[key] + 1
            element = mr.MrElement(element.ring, element.basis, terms)
        return element

    monkeypatch.setattr(mr, "klyachko_element", perturbed)
    code, data = run_json(capsys, "klyachko", "--n", "2", "--check")
    assert code == 1
    assert data["ok"] is False and data["match"] is False
    assert "ribbon_sum" in data and data["ribbon_sum"] != data["element"]
    code, out = run_cli(capsys, "klyachko", "--n", "2", "--check")
    assert code == 1
    assert "match: False" in out
    assert out.strip().endswith("FAILED")


def _separate_run(argv):
    """(exit status, stdout, stderr) of the command run in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "peakforge.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return done.returncode, done.stdout, done.stderr


def test_one_parser_serves_a_usage_error_and_a_valid_run(capsys):
    # main builds its parser once per process; a usage error leaves it as it
    # was, so the runs after it print what separate runs print
    misuse = ["klyachko", "--n", "-1"]
    valid = ["klyachko", "--n", "2", "--check", "--format", "json"]
    with pytest.raises(SystemExit) as exc:
        main(misuse)
    assert exc.value.code == 2
    error = capsys.readouterr()
    code, out = run_cli(capsys, *valid)
    assert code == 0
    assert cli._parser() is cli._parser()
    assert _separate_run(misuse) == (2, error.out, error.err)
    assert _separate_run(valid) == (0, out, "")


# modules a run never uses: what dataclasses and shutil would import
NOT_AT_START_UP = ("dataclasses", "inspect", "ast", "dis", "tokenize", "shutil", "bz2", "lzma")


def test_start_up_imports_only_what_a_run_uses():
    # a fresh interpreter without site hooks, as the bench starts the package
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import peakforge.cli; "
        "peakforge.cli._parser(); print(*sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(done.stdout.split())
    assert "peakforge.peak" in loaded
    assert loaded.isdisjoint(NOT_AT_START_UP), sorted(loaded.intersection(NOT_AT_START_UP))


@pytest.fixture(params=["60", "120", None, "0", "-5", "wide"])
def columns(request, monkeypatch, tmp_path):
    """COLUMNS as the parameter says (None: unset), and no terminal."""
    if request.param is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", request.param)
    with open(tmp_path / "stdout", "w") as handle:
        monkeypatch.setattr(sys, "__stdout__", handle)
        yield request.param


def _help_outputs(capsys):
    """Top-level help, hilbert's help and a usage error's stderr."""
    parser = cli.build_parser()
    outputs = [parser.format_help()]
    for argv in (["hilbert", "--help"], ["klyachko", "--n", "-1"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        captured = capsys.readouterr()
        outputs.append(captured.out + captured.err)
    return outputs


def test_help_is_what_the_stock_formatter_prints(columns, capsys, monkeypatch):
    ours = _help_outputs(capsys)
    assert "usage: peakforge hilbert" in ours[1] and "error:" in ours[2]
    monkeypatch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
    assert _help_outputs(capsys) == ours


def test_help_width_is_the_terminal_width(columns):
    assert cli.build_parser().formatter_class is cli._HelpFormatter
    width = shutil.get_terminal_size().columns - 2
    assert cli._HelpFormatter("peakforge")._width == width
    assert width == (int(columns) if columns in ("60", "120") else 80) - 2


def test_json_text_is_built_only_when_printed_or_written(capsys, monkeypatch, tmp_path):
    argv = ["bmaj", "--composition", "2,-1"]
    _, table = run_cli(capsys, *argv)
    dumps, calls = json.dumps, []

    def counted(*args, **kwargs):
        calls.append(args)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    assert run_cli(capsys, *argv) == (0, table)
    assert not calls
    run_json(capsys, *argv)
    run_cli(capsys, *argv, "--out", str(tmp_path / "report.json"))
    assert len(calls) == 2


def test_bmaj_long_composition(capsys):
    code, data = run_json(
        capsys, "bmaj", "--composition", "2,1,1,-3,-1,-2,4,-1,2,2"
    )
    assert code == 0
    assert data["bmaj"] == 117
    assert data["rho"] == "2,1,1,3,1,6,3,2"
    assert data["maj_rho"] == 55
    assert data["weights"] == [14, 12, 10, 9, 7, 5, 4, 3, 2, 0]
    assert data["consistent"] is True


def test_bmaj_general_colors(capsys):
    code, data = run_json(
        capsys, "bmaj", "--composition", "2~0,1~2,3~1", "--colors", "3"
    )
    assert code == 0
    assert "rho" not in data
    assert data["bmaj"] == sum(
        s * w for s, w in zip((2, 1, 3), data["weights"])
    )


def test_bmaj_of_the_composition_of_zero(capsys):
    # the empty text is the composition of 0, with no parts and bmaj 0
    code, data = run_json(capsys, "bmaj", "--composition", "")
    assert code == 0
    assert (data["composition"], data["weights"], data["bmaj"]) == ("", [], 0)
    assert (data["rho"], data["maj_rho"], data["consistent"]) == ("", 0, True)


def test_hilbert_json(capsys):
    code, data = run_json(
        capsys, "hilbert", "--algebra", "mrsharp", "--r", "3", "--max-degree", "3"
    )
    assert code == 0
    assert data["report"]["dims"] == [1, 2, 6, 17]
    assert data["report"]["match"] is True
    # the cheap counting scan always reaches degree 8
    counts = data["generator_counts"]
    assert counts["match"] is True
    assert counts["values"] == [1, 2, 6, 17, 50, 146, 426, 1244, 3632]


def test_hilbert_module_report_is_not_gated(capsys):
    code, data = run_json(
        capsys,
        "hilbert",
        "--algebra",
        "mrsharp-module",
        "--r",
        "2",
        "--max-degree",
        "3",
    )
    assert code == 0
    sources = {c["source"]: c["match"] for c in data["report"]["candidates"]}
    assert sources["2^n"] is True


@pytest.mark.parametrize("r", [4, 6])
def test_hilbert_module_even_r_candidate_is_not_gated(r, monkeypatch, capsys):
    argv = ("hilbert", "--algebra", "mrsharp-module", "--r", str(r), "--max-degree", "5")
    source = f"1/(1-2(t+...+t^{r // 2}))"
    code, data = run_json(capsys, *argv)
    sources = {c["source"]: c["match"] for c in data["report"]["candidates"]}
    assert code == 0 and sources[source] is True
    assert not all(sources.values())
    # a candidate that misses changes its match, never the exit status
    candidates = peak.sharp_module_candidates

    def missing(r, n_max):
        out = candidates(r, n_max)
        out[source] = [0] * (n_max + 1)
        return out

    monkeypatch.setattr(peak, "sharp_module_candidates", missing)
    code, data = run_json(capsys, *argv)
    sources = {c["source"]: c["match"] for c in data["report"]["candidates"]}
    assert code == 0 and data["ok"] is True
    assert not any(sources.values())


def test_closure_bsym(capsys):
    code, data = run_json(capsys, "closure", "--algebra", "bsym", "--degree", "2")
    assert code == 0
    assert all(r["ok"] for r in data["results"])


def test_failure_witnesses_are_readable(capsys, monkeypatch):
    from peakforge import peak, sym
    from peakforge.linalg import GradedSubspace
    from peakforge.scalars import QQ

    closed = peak.unital_peak_subspace

    def one_row_short(n, r):
        space = closed(n, r)
        if n < 3:
            return space
        out = GradedSubspace(space.ring, space.keys, degree=space.degree)
        for row in space.basis()[1:]:
            out.insert(row)
        return out

    monkeypatch.setattr(peak, "unital_peak_subspace", one_row_short)
    argv = ("closure", "--algebra", "unital-peak", "--r", "3", "--degree", "3")
    code, data = run_json(capsys, *argv)
    assert code == 1
    assert [r["witness"] for r in data["results"]] == [None, None, None, "1,2 * 1,2"]
    code, out = run_cli(capsys, *argv)
    assert "degree 3: NOT closed: 1,2 * 1,2" in out

    zero = sym.SymElement(QQ, sym.R, {})
    monkeypatch.setattr(sym, "internal_product", lambda f, g: zero)
    code, data = run_json(capsys, "oracle", "--group", "Sn", "--n", "2")
    assert code == 1
    assert data["failures"] == ["1,1 * 1,1", "1,1 * 2", "2 * 1,1", "2 * 2"]
    code, out = run_cli(capsys, "oracle", "--group", "Sn", "--n", "2")
    assert "  2 * 1,1" in out.splitlines()


def test_oracle_sn(capsys):
    code, data = run_json(capsys, "oracle", "--group", "Sn", "--n", "3")
    assert code == 0 and data["ok"] is True


def test_invert_sharp(capsys):
    code, data = run_json(capsys, "invert-sharp", "--max-degree", "3")
    assert code == 0 and data["ok"] is True


def test_invert_sharp_fails_on_a_perturbed_coefficient(capsys, monkeypatch):
    from peakforge import mr
    from peakforge.scalars import QQq

    cleared = mr.cleared_inverse_component
    c3, g3 = cleared(3)
    assert len(g3.terms) == 18
    for word in sorted(g3.terms):
        terms = dict(g3.terms)
        terms[word] = terms[word] + QQq.q
        perturbed = mr.MrElement(QQq, g3.basis, terms)
        monkeypatch.setattr(
            mr,
            "cleared_inverse_component",
            lambda n: (c3, perturbed) if n == 3 else cleared(n),
        )
        code, data = run_json(capsys, "invert-sharp", "--max-degree", "3")
        assert code == 1 and data["ok"] is False, word
        assert data["terms"] == 27


def test_generators(capsys):
    code, data = run_json(capsys, "generators", "--max-degree", "2")
    assert code == 0
    assert all(r["ok"] for r in data["results"])


def test_identities(capsys):
    code, data = run_json(capsys, "identities", "--q", "1", "--max-degree", "3")
    assert code == 0 and data["ok"] is True
    assert (data["q"], data["max_degree"]) == (1, 3)
    assert "witness" not in data


@pytest.mark.parametrize("q", ["1", "-1"])
@pytest.mark.parametrize("degree", [0, 1])
def test_identities_at_degrees_zero_and_one(q, degree, capsys):
    # degree 0 substitutes no letter, degree 1 the letters of size 1 only
    code, data = run_json(capsys, "identities", "--q", q, "--max-degree", str(degree))
    assert code == 0 and data["ok"] is True
    assert (data["q"], data["max_degree"]) == (int(q), degree)
    assert "witness" not in data


def _flip_first_entry(monkeypatch, letter):
    """Flip the sign of the first entry of one letter's integer image."""
    table = peak._pm_one_letter

    def flipped(q_value, x):
        entries = table(q_value, x)
        if x != letter:
            return entries
        (word, c), *rest = entries
        return ((word, -c), *rest)

    monkeypatch.setattr(peak, "_pm_one_letter", flipped)


@pytest.mark.parametrize("q", ["1", "-1"])
def test_identities_report_a_flipped_letter_sign(q, monkeypatch, capsys):
    _flip_first_entry(monkeypatch, (2, 1))
    code, data = run_json(capsys, "identities", "--q", q, "--max-degree", "1")
    assert code == 0  # no letter of size 2 below degree 2
    code, data = run_json(capsys, "identities", "--q", q, "--max-degree", "4")
    assert code == 1 and data["ok"] is False
    assert data["witness"] == {"word": "1,1", "lhs": -4, "rhs": 4}
    code, out = run_cli(capsys, "identities", "--q", q, "--max-degree", "4")
    assert code == 1
    assert "first difference at 1,1: -4 on the left, 4 on the right" in out
    assert out.strip().endswith("FAILED")


@pytest.mark.parametrize("q", ["1", "-1"])
@pytest.mark.parametrize("degree", [0, 3])
def test_identities_report_a_wrong_constant(q, degree, monkeypatch, capsys):
    monkeypatch.setattr(peak, "_PM_ONE_CONSTANT", 3)
    code, data = run_json(capsys, "identities", "--q", q, "--max-degree", str(degree))
    assert code == 1 and data["ok"] is False
    assert data["witness"] == {"word": "()", "lhs": 4, "rhs": 3}


def test_monomial(capsys):
    code, data = run_json(capsys, "monomial", "--n", "3")
    assert code == 0
    assert all(r["monomial_expansion"] and r["power_sum"] for r in data["results"])


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "klyachko", "--n", "3", "--check", "--format", "json")
    _, second = run_cli(capsys, "klyachko", "--n", "3", "--check", "--format", "json")
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "hilbert", "--algebra", "peak", "--r", "2", "--max-degree", "3",
        "--out", str(target),
    )
    assert code == 0
    data = json.loads(target.read_text())
    assert data["schema"] == "peakforge/1"
    assert data["report"]["dims"] == [1, 1, 1, 2]


def test_degree_cap_refusal(capsys):
    with pytest.raises(SystemExit):
        main(["hilbert", "--algebra", "peak", "--r", "2", "--max-degree", "9"])


def test_invalid_flags_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["hilbert", "--algebra", "nonsense", "--r", "2", "--max-degree", "3"])
    with pytest.raises(SystemExit):
        main(["identities", "--q", "2", "--max-degree", "3"])


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--algebra", "peak", "--r", "0", "--max-degree", "3"],
        ["hilbert", "--algebra", "peak", "--r", "-2", "--max-degree", "3"],
        ["bmaj", "--composition", "1,x"],
        ["bmaj", "--composition", "1~5"],
        ["hilbert", "--algebra", "peak", "--r", "2", "--max-degree", "-1"],
        ["klyachko", "--n", "-1"],
        ["hilbert", "--algebra", "peak", "--r", "2", "--max-degree", "9"],
        ["closure", "--algebra", "bsym", "--r", "7", "--degree", "1"],
        ["generators", "--max-degree", "2", "--out", str(Path(__file__).parent)],
        [
            "generators", "--max-degree", "2",
            "--out", str(Path(__file__).parent / "no-such-directory" / "report.json"),
        ],
        ["bmaj", "--composition", "1", "--out", ""],
    ],
    ids=[
        "r-zero", "r-negative", "bad-composition", "color-out-of-level", "negative-degree",
        "negative-n", "cap", "bsym-r", "out-directory", "out-missing-directory",
        "empty-out",
    ],
)
def test_misuse_is_a_usage_error(argv, capsys):
    # exit status 2 and one error line, never a traceback or a vacuous ok
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        captured.err.splitlines()[-1]
    ]


def _cap_argv(key, degree):
    """The invocation of a ``cli.CAPS`` entry at ``degree``."""
    command, _, variant = key.partition("/")
    if command == "hilbert":
        return [command, "--algebra", variant, "--r", "2", "--max-degree", str(degree)]
    if command == "closure":
        return [command, "--algebra", variant, "--degree", str(degree)]
    if command == "oracle":
        return [command, "--group", variant, "--n", str(degree)]
    extra = ["--q", "1"] if command == "identities" else []
    flag = "--n" if command in ("klyachko", "monomial") else "--max-degree"
    return [command, *extra, flag, str(degree)]


@pytest.mark.parametrize("key", sorted(CAPS))
def test_every_cap_refuses_the_next_degree(key, capsys):
    cap = CAPS[key]
    with pytest.raises(SystemExit) as exc:
        main(_cap_argv(key, cap + 1))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"{cap + 1} exceeds the documented cap {cap} for {key} " in errors[0]


def test_readme_names_every_degree_cap():
    from pathlib import Path

    from peakforge.cli import CAPS

    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Degree caps", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) == 3 and cells[2].isdigit():
            rows[cells[1].strip("`")] = int(cells[2])
    assert rows == CAPS
