import json

import pytest

from peakforge.cli import main


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


def test_generators(capsys):
    code, data = run_json(capsys, "generators", "--max-degree", "2")
    assert code == 0
    assert all(r["ok"] for r in data["results"])


def test_identities(capsys):
    code, data = run_json(capsys, "identities", "--q", "1", "--max-degree", "3")
    assert code == 0 and data["ok"] is True


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
        ["hilbert", "--algebra", "peak", "--r", "2", "--max-degree", "-1"],
        ["klyachko", "--n", "-1"],
        ["hilbert", "--algebra", "peak", "--r", "2", "--max-degree", "9"],
    ],
    ids=["r-zero", "r-negative", "bad-composition", "negative-degree", "negative-n", "cap"],
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
