import json

import pytest

from delpezzo.cli import main, parse_surface_line, parse_u_polynomial, read_surface_file, SurfaceFileError
from delpezzo.gf import field

FERMAT = "1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,1,0,0,1"


def test_parse_u_polynomial():
    f2 = field(2, 1)
    assert parse_u_polynomial("u^2+u+1", f2).format() == "1,1,1"
    assert parse_u_polynomial("0", f2).format() == ""
    assert parse_u_polynomial("1", f2).format() == "1"
    f5 = field(5, 1)
    assert parse_u_polynomial("3u^2+2", f5).format() == "2,0,3"
    with pytest.raises(ValueError):
        parse_u_polynomial("u**2", f2)


def test_parse_surface_line_finite_field():
    kind, form = parse_surface_line(f"7 1 : {FERMAT}")
    assert kind == "finite-field"
    assert form.field.order == 7


def test_parse_surface_line_function_field():
    coeffs = ["u"] + ["1"] * 19
    kind, form = parse_surface_line("2 1 : " + ",".join(coeffs))
    assert kind == "function-field"
    assert form.base.order == 2


def test_parse_surface_line_errors():
    with pytest.raises(ValueError):
        parse_surface_line("4 1 : " + FERMAT)  # not prime
    with pytest.raises(ValueError):
        parse_surface_line("7 1 : 1,2,3")  # wrong arity


def test_read_surface_file_reports_line_numbers(tmp_path):
    path = tmp_path / "surfaces.txt"
    path.write_text("# comment\n\n7 1 : 1,2\n")
    with pytest.raises(SurfaceFileError, match=":3:"):
        read_surface_file(str(path))


def test_cli_verify_single_degree(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "-d", "7", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_pass"]
    claims = [c["claim"] for c in report["checks"]]
    assert any("n_7" in c for c in claims)
    assert any("d=7" in c for c in claims)


def test_cli_surface_end_to_end(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text(
        f"7 1 : {FERMAT}\n"
        f"2 1 : {FERMAT}\n"
        "7 1 : 1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,1,0,0,0\n"
    )
    out = tmp_path / "report.json"
    code = main(["surface", str(src), "--json", str(out),
                 "--budget-points", "1000000", "--budget-lines", "10000000"])
    assert code == 0
    report = json.loads(out.read_text())
    surfaces = report["surfaces"]
    assert surfaces[0]["rational_lines"] == 27
    assert surfaces[0]["splitting_degree"] == 1
    assert surfaces[1]["rational_lines"] == 3
    assert surfaces[1]["splitting_degree"] == 2
    assert surfaces[2]["smoothness"]["status"] == "not_smooth"
    assert surfaces[2]["smoothness"]["witness"] is not None


def test_cli_surface_bad_file(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("7 1 : 1,2\n")
    assert main(["surface", str(src)]) == 2
    assert ":1:" in capsys.readouterr().err


def test_cli_density_tiny(tmp_path):
    out = tmp_path / "density.json"
    csv = tmp_path / "density.csv"
    code = main([
        "density", "-q", "2", "-D", "1", "-N", "2", "--seed", "cli-test",
        "--max-places", "2", "--min-usable-places", "1",
        "--budget-points", "5000", "--budget-lines", "1000000",
        "--json", str(out), "--csv", str(csv),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == "cli-test"
    assert len(report["rows"]) == 1
    assert csv.read_text().startswith("degree_bound,")


def test_cli_density_rejects_nonprime_q(capsys):
    assert main(["density", "-q", "6", "-N", "1"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_tables(tmp_path):
    out = tmp_path / "tables.json"
    assert main(["tables", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["classes"]) == 25
    assert report["char_polys_separate_classes"] is True
    assert len(report["content_hash"]) == 64


def test_cli_surface_budget_exceeded_is_one_line(tmp_path, capsys):
    src = tmp_path / "big.txt"
    src.write_text(f"2 17 : {FERMAT}\n")
    assert main(["surface", str(src), "--budget-points", str(10**18)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err and "above order" in err and "Traceback" not in err


def test_cli_field_size_error_is_one_line(tmp_path, capsys, monkeypatch):
    from delpezzo import cli
    from delpezzo.gf import FieldSizeError

    def too_big(path):
        raise FieldSizeError("field of order 2^21 exceeds the cap 1048576")

    monkeypatch.setattr(cli, "read_surface_file", too_big)
    assert main(["surface", str(tmp_path / "any.txt")]) == 2
    assert capsys.readouterr().err == "surface: field of order 2^21 exceeds the cap 1048576\n"
