import hashlib
import json

import pytest

from delpezzo.cli import (
    SurfaceFileError,
    _density_config,
    build_parser,
    main,
    parse_surface_line,
    parse_u_polynomial,
    read_surface_file,
)
from delpezzo.experiment import ExperimentConfig
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


#: sha256 of the `verify -d N` report for each degree
VERIFY_REPORT_SHA256 = {
    1: "be0175e3e5f31dd1718e47e15ef56fed6efc2066108963bd7136832e08c5eef9",
    2: "6b6015b5f7be867baebbe3279d8b6eba4982af492507a66dd9ff2169216b2085",
    3: "678e9a50d52746c57316606e61282a4ffcb171182ddf839698ea872fa73954f8",
    4: "00c949811dde6f8c96ca2af503edb48a91d5bd4ac181986bfb1266a2b0855759",
    5: "915b1e5d4c70abc4b6ba47d146704cb6c509ff3e8e78e5a9297eb5ca1a00c615",
    6: "6ec67771b24b8d27abe56976656afb07a73026e26ec8e8730e39b37c4f55f6bf",
    7: "5cfdcdb9a01e52c467e629916f736d29750e6c653666fb21d5485cf48eaf4404",
}

#: sha256 of the `verify --all` and `tables` reports
VERIFY_ALL_REPORT_SHA256 = "bfd99aa1497028d21bede6d81b837af319d5dc1f41d2d4899e8bd3382a8729e7"
TABLES_REPORT_SHA256 = "a4629c940ed9278149f1983d6695f2d842eaf0d50e860b5257c921464a50c8b4"


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--all"], VERIFY_ALL_REPORT_SHA256),
    (["tables"], TABLES_REPORT_SHA256),
])
def test_cli_combinatorics_reports_are_pinned(argv, digest, tmp_path):
    out = tmp_path / "report.json"
    assert main([*argv, "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("degree", sorted(VERIFY_REPORT_SHA256))
def test_cli_verify_computes_only_the_degree_asked_for(degree, tmp_path, monkeypatch):
    from delpezzo import cli

    asked = []
    verify_table1 = cli.verify_table1

    def spy(**kwargs):
        asked.append(tuple(kwargs["degrees"]))
        return verify_table1(**kwargs)

    monkeypatch.setattr(cli, "verify_table1", spy)
    out = tmp_path / "verify.json"
    assert main(["verify", "-d", str(degree), "--json", str(out)]) == 0
    assert asked == [(degree,)]
    # every degree-N check verify_table1 computes reaches the report
    claims = [c["claim"] for c in json.loads(out.read_text())["checks"]]
    assert f"W generators preserve the degree-{degree} labels" in claims
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_REPORT_SHA256[degree]


@pytest.mark.parametrize("degree", ["0", "8", "9", "-3"])
def test_cli_verify_rejects_degrees_outside_1_to_7(degree, capsys):
    assert main(["verify", "-d", degree]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verify: degree must be in 1..7, got {degree}\n"


def test_cli_verify_rejects_all_with_a_degree(capsys):
    assert main(["verify", "--all", "-d", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verify: --all and --degree exclude each other\n"


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


#: one surface per line: Fermat over GF(7) and GF(2), the GF(7) cone, the
#: three planes xyz over GF(7) (reducible, so its report carries
#: `trace_error`), a cubic over GF(9) and a cubic over GF(2)[u]
PINNED_SURFACES = (
    f"7 1 : {FERMAT}\n"
    f"2 1 : {FERMAT}\n"
    "7 1 : 1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,1,0,0,0\n"
    "7 1 : 0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n"
    "3 2 : 1,5,0,2,7,0,3,0,8,1,4,0,6,2,0,5,1,3,0,7\n"
    "2 1 : u,1,0,u^2+1,0,1,0,0,u,1,1,0,1,0,u+1,0,1,1,0,u\n"
)
PINNED_SURFACE_REPORT_SHA256 = "b6d6d72ffdd18dc45cd2bea1ff4bb34dc371549027657448cd1c35da2feccc1d"


def test_cli_surface_report_bytes_are_pinned(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text(PINNED_SURFACES)
    out = tmp_path / "report.json"
    assert main(["surface", str(src), "--json", str(out),
                 "--budget-points", "300000", "--budget-lines", "100000000"]) == 0
    report = json.loads(out.read_text())
    assert "trace_error" in report["surfaces"][3]
    assert report["surfaces"][5]["kind"] == "function-field"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SURFACE_REPORT_SHA256


def test_cli_surface_reports_a_bad_place_and_uses_it_for_no_certificate(tmp_path):
    # u times a smooth constant cubic over GF(2): the form vanishes at the
    # place u and is a scaled copy of that cubic at the four other places
    smooth = [1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1]
    src = tmp_path / "bad_place.txt"
    src.write_text("2 1 : " + ",".join("u" if c else "0" for c in smooth) + "\n")
    out = tmp_path / "report.json"
    assert main(["surface", str(src), "--json", str(out)]) == 0
    surface = json.loads(out.read_text())["surfaces"][0]
    assert surface["places"][0] == {
        "place": "0,1", "status": "bad_place", "detail": "all coefficients vanish at place 0,1"}
    assert [p["status"] for p in surface["places"][1:]] == ["smooth_certified"] * 4
    witnesses = [*surface["h1_certificate"]["witnesses"].values(),
                 *surface["subgroup_exclusion"]["witnesses"].values()]
    assert witnesses and "0,1" not in witnesses


def test_cli_surface_line_budget_is_q_to_the_fourth(tmp_path):
    # a line scan over GF(7) costs 7^4 = 2401 row pairs
    src = tmp_path / "fermat7.txt"
    src.write_text(f"7 1 : {FERMAT}\n")
    out = tmp_path / "report.json"
    assert main(["surface", str(src), "--json", str(out), "--budget-lines", "2401"]) == 0
    surface = json.loads(out.read_text())["surfaces"][0]
    assert surface["rational_lines"] == 27
    assert surface["smoothness"]["status"] == "smooth_certified"
    assert main(["surface", str(src), "--json", str(out), "--budget-lines", "2400"]) == 0
    assert json.loads(out.read_text())["surfaces"][0]["rational_lines"] is None


def test_cli_surface_counts_rational_lines_past_the_density_field_bound(tmp_path):
    # density and surface share one line gate, which admits GF(521) at the
    # default budget (521^4 <= 10^11, and the field has tables); there
    # x^3 + y^3 + z^3 + w^3 has the 3 lines x = -y, z = -w and their
    # permutations (521 = 2 mod 3)
    src = tmp_path / "fermat521.txt"
    src.write_text(f"521 1 : {FERMAT}\n")
    out = tmp_path / "report.json"
    assert main(["surface", str(src), "--json", str(out), "--budget-points", "1000"]) == 0
    surface = json.loads(out.read_text())["surfaces"][0]
    assert surface["smoothness"]["status"] == "smooth_certified"
    assert surface["frobenius"]["line_counts"] == {"1": 3}
    assert surface["rational_lines"] == 3


def test_cli_surface_bad_file(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("7 1 : 1,2\n")
    assert main(["surface", str(src)]) == 2
    assert ":1:" in capsys.readouterr().err


def test_cli_surface_missing_file_is_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["surface", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("surface: ") and str(missing) in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_cli_surface_reads_input_before_building_the_table(tmp_path, capsys, monkeypatch):
    from delpezzo import cli

    def never(*args, **kwargs):
        raise AssertionError("the class table was built for a malformed file")

    monkeypatch.setattr(cli, "build_class_table", never)
    src = tmp_path / "bad.txt"
    src.write_text(f"7 1 : {FERMAT}\n7 1 : 1,2\n")
    assert main(["surface", str(src)]) == 2
    assert capsys.readouterr().err == f"{src}:2: expected 20 coefficients, got 2\n"


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


def test_cli_flag_defaults_are_the_experiment_config_defaults():
    assert _density_config(build_parser().parse_args(["density"])) == ExperimentConfig()
    surface = build_parser().parse_args(["surface", "in.txt"])
    config = ExperimentConfig()
    assert (surface.max_place_degree, surface.budget_points, surface.budget_lines) == (
        config.max_place_degree, config.point_budget, config.line_budget)


def test_cli_density_has_no_early_stop_switch(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["density", "-N", "1", "--no-early-stop"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-early-stop" in capsys.readouterr().err


def test_cli_density_rejects_nonprime_q(capsys):
    assert main(["density", "-q", "6", "-N", "1"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["-D", "-1", "-N", "1"],
    ["-D", "1", "-N", "2", "--max-places", "1", "--min-usable-places", "0"],
])
def test_cli_density_bad_config_is_one_line(argv, capsys):
    assert main(["density", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("configuration error: ") and "\n" not in err


def test_cli_density_rejects_a_negative_budget(capsys, monkeypatch):
    from delpezzo import experiment

    def never(*args, **kwargs):
        raise AssertionError("the class table was built for a negative budget")

    monkeypatch.setattr(experiment, "build_class_table", never)
    for flag in ("--budget-lines", "--budget-points"):
        assert main(["density", "-q", "2", "-N", "1", "-D", "1", flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("density: ") and captured.err.count("\n") == 1


def test_cli_surface_rejects_a_negative_budget(tmp_path, capsys, monkeypatch):
    from delpezzo import cli

    def never(*args, **kwargs):
        raise AssertionError("the class table was built for a negative budget")

    monkeypatch.setattr(cli, "build_class_table", never)
    src = tmp_path / "fermat.txt"
    src.write_text(f"7 1 : {FERMAT}\n")
    for flag, value in (("--budget-lines", "-5"), ("--budget-points", "-1")):
        assert main(["surface", str(src), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("surface: ") and captured.err.count("\n") == 1


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


def test_cli_surface_beyond_the_table_cap_is_one_line(tmp_path, capsys, monkeypatch):
    # smoothness is one rank over GF(2^17), a field without tables; the
    # input is refused before the class table or any earlier line
    from delpezzo import cli

    def never(*args, **kwargs):
        raise AssertionError("the class table was built for a field without tables")

    monkeypatch.setattr(cli, "build_class_table", never)
    src = tmp_path / "big.txt"
    src.write_text(f"7 1 : {FERMAT}\n2 17 : {FERMAT}\n")
    assert main(["surface", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("surface: ") and "above order 65536" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("degree", ["0", "-1", "17", "1000000000"])
def test_cli_surface_rejects_place_degrees_without_tables(degree, tmp_path, capsys, monkeypatch):
    from delpezzo import cli

    def never(*args, **kwargs):
        raise AssertionError("the class table was built for a rejected place degree")

    monkeypatch.setattr(cli, "build_class_table", never)
    src = tmp_path / "ff.txt"
    src.write_text("2 1 : u," + ",".join(["1"] * 19) + "\n")
    assert main(["surface", str(src), "--max-place-degree", degree]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("surface: ") and captured.err.count("\n") == 1


def test_cli_field_size_error_is_one_line(tmp_path, capsys, monkeypatch):
    from delpezzo import cli
    from delpezzo.gf import FieldSizeError

    def too_big(path):
        raise FieldSizeError("field of order 2^21 exceeds the cap 1048576")

    monkeypatch.setattr(cli, "read_surface_file", too_big)
    assert main(["surface", str(tmp_path / "any.txt")]) == 2
    assert capsys.readouterr().err == "surface: field of order 2^21 exceeds the cap 1048576\n"
