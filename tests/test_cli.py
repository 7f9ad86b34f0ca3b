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
from delpezzo.gf import TABLE_FIELD_CAP, field, is_prime

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


def _no_trial_division_above_the_cap(monkeypatch, *modules):
    """Make `is_prime` in each module fail the test for any n above the cap."""
    prime = is_prime

    def small_only(n):
        assert n <= TABLE_FIELD_CAP, f"trial division of {n}"
        return prime(n)

    for module in modules:
        monkeypatch.setattr(module, "is_prime", small_only)


def test_cli_surface_non_utf8_file_is_one_line(tmp_path, capsys):
    src = tmp_path / "latin1.txt"
    # the first two lines end in \r and \r\n, which still end a line
    src.write_bytes(b"# comment\r7 1 : " + FERMAT.encode() + b"\r\n2 1 : u,\xff\n")
    assert main(["surface", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{src}:3: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("header", ["2305843009213693951 1", "65537 1", "3 10000000"])
def test_cli_surface_header_above_the_table_cap(header, tmp_path, capsys, monkeypatch):
    from delpezzo import cli, gf

    _no_trial_division_above_the_cap(monkeypatch, cli, gf)
    src = tmp_path / "big.txt"
    src.write_text(f"{header} : {FERMAT}\n")
    assert main(["surface", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"surface: {src}:1: GF({header.replace(' ', '^')}): no arithmetic tables above order 65536\n"


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


@pytest.mark.parametrize("argv, failures", [
    (["verify", "--all"], ["verify_table1 fails", "schlafli_report fails"] + ["stabilizer_chain_check fails"] * 6),
    (["verify", "-d", "3"], ["verify_table1 fails", "stabilizer_chain_check fails", "schlafli_report fails"]),
])
def test_cli_verify_failure_exits_1_and_names_the_failed_claims(argv, failures, capsys, monkeypatch):
    from delpezzo import cli, verify
    from delpezzo.verify import Check

    def failing(name):
        return lambda *args, **kwargs: [Check(f"{name} fails", 0, 1, 3), Check(f"{name} holds", 0, 0, 3)]

    for name in ("verify_table1", "stabilizer_chain_check", "schlafli_report"):
        monkeypatch.setattr(verify, name, failing(name))
        monkeypatch.setattr(cli, name, failing(name))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["all_pass"] is False
    assert captured.err == "FAILED: " + "; ".join(failures) + "\n"


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
PINNED_SURFACE_REPORT_SHA256 = "edf909b0e81884b1b4cc27e8f3c5a30ea84458fde0bf641766738be6e2c1a6ed"


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


@pytest.mark.parametrize("line, message", [
    (f"7 : {FERMAT}", "expected header 'p k : coefficients'"),
    ("2 1 : 9" + ",0" * 19, "encoding 9 out of range for field of order 2"),
    ("2 1 : " + ",".join(["0u"] * 20), "the zero form does not define a surface"),
    ("2 1 : u^1025" + ",0" * 19, "u-exponent 1025 above 1024"),
])
def test_cli_surface_malformed_line_is_one_line(line, message, tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text(f"# comment\n{line}\n")
    assert main(["surface", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{src}:2: {message}\n"


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


@pytest.mark.parametrize("argv, message", [
    (["-N", "-1"], "samples_per_degree (-N) must be >= 0, not -1"),
    (["--max-place-degree", "0"], "max_place_degree (--max-place-degree) must be >= 1, not 0"),
    (["--max-places", "0"], "max_places (--max-places) must be >= 1, not 0"),
    (["-q", "4"], "q (-q) must be prime, not 4"),
    (["-D", "-1"], "degree_bounds (-D) must be >= 0, not -1"),
    (["--min-usable-places", "0"], "min_usable_places (--min-usable-places) must be >= 1, not 0"),
    (["--budget-points", "7"], "point_budget (--budget-points) must be >= q^3 = 8, not 7"),
])
def test_cli_density_names_the_bad_option(argv, message, capsys):
    assert main(["density", "-D", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


@pytest.mark.parametrize("argv, places, needed", [
    # F_2 has 2 places of degree 1, and the default needs 3 usable places
    (["-N", "2", "-D", "1", "--max-place-degree", "1"], 2, 3),
    (["--max-places", "2", "--min-usable-places", "9"], 2, 9),
])
def test_cli_density_with_too_few_places_runs_no_sample(argv, places, needed, capsys, monkeypatch):
    from delpezzo import experiment

    def never(*args, **kwargs):
        raise AssertionError("a sample ran although every sample would be skipped")

    monkeypatch.setattr(experiment, "build_class_table", never)
    monkeypatch.setattr(experiment, "analyze_sample", never)
    assert main(["density", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith(f"configuration error: {places} places ") and "\n" not in err
    assert f"fewer than min_usable_places {needed}" in err


def test_cli_density_places_without_tables_is_a_config_error(capsys, monkeypatch):
    # 300 places of F_257(u) need places of degree 2, in GF(257^2), which
    # is above the table cap
    from delpezzo import experiment

    def never(*args, **kwargs):
        raise AssertionError("a sample ran although its places lie in a field without tables")

    monkeypatch.setattr(experiment, "build_class_table", never)
    monkeypatch.setattr(experiment, "analyze_sample", never)
    assert main(["density", "-q", "257", "-N", "1", "-D", "1", "--max-places", "300",
                 "--max-place-degree", "2", "--budget-points", str(10**8)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("configuration error: ") and "above order 65536" in err and "\n" not in err


def test_cli_density_base_field_without_tables_is_named_first(capsys, monkeypatch):
    # GF(65537) has no tables; the default point budget is also below 65537^3,
    # but the missing field is the fault to report, and a q far above the cap
    # is refused before any trial division
    from delpezzo import experiment, gf

    def never(*args, **kwargs):
        raise AssertionError("the class table was built for a field without tables")

    monkeypatch.setattr(experiment, "build_class_table", never)
    _no_trial_division_above_the_cap(monkeypatch, experiment, gf)
    for q in ("65537", "2305843009213693951"):
        assert main(["density", "-q", q, "-N", "1", "-D", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: GF({q}^1): no arithmetic tables above order 65536\n"


def test_cli_density_rejects_a_negative_budget(capsys, monkeypatch):
    from delpezzo import experiment

    def never(*args, **kwargs):
        raise AssertionError("the class table was built for a negative budget")

    monkeypatch.setattr(experiment, "build_class_table", never)
    for flag, message in (("--budget-lines", "line_budget (--budget-lines) must be >= 0, not -1"),
                          ("--budget-points", "point_budget (--budget-points) must be >= q^3 = 8, not -1")):
        assert main(["density", "-q", "2", "-N", "1", "-D", "1", flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"


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
        assert captured.err == f"surface: {flag} must be >= 0, not {value}\n"


def test_cli_tables(tmp_path, capsys):
    out = tmp_path / "tables.json"
    assert main(["tables", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["classes"]) == 25
    assert report["char_polys_separate_classes"] is True
    assert len(report["content_hash"]) == 64
    # without --json the same bytes go to stdout
    assert capsys.readouterr().out == ""
    assert main(["tables"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_cli_surface_budget_exceeded_is_one_line(tmp_path, capsys):
    src = tmp_path / "big.txt"
    src.write_text(f"2 17 : {FERMAT}\n")
    assert main(["surface", str(src), "--budget-points", str(10**18)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err and "above order" in err and "Traceback" not in err


def test_cli_surface_point_budget_past_the_table_cap_stops_at_the_cap(tmp_path):
    # 257^6 <= 10^15, but GF(257^2) is above the cap: the traces stop
    # quietly at m = 1, as the line counts do
    src = tmp_path / "fermat257.txt"
    src.write_text(f"257 1 : {FERMAT}\n")
    out = tmp_path / "report.json"
    assert main(["surface", str(src), "--json", str(out), "--budget-points", str(10**15)]) == 0
    surface = json.loads(out.read_text())["surfaces"][0]
    assert surface["traces"] == [1]
    assert surface["frobenius"]["class_ids"] == [3]
    assert surface["rational_lines"] == 3


def test_cli_surface_beyond_the_table_cap_is_one_line(tmp_path, capsys, monkeypatch):
    # GF(2^17) is above the table cap, so no field of that order exists; the
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
        raise FieldSizeError("GF(2^17): no arithmetic tables above order 65536")

    monkeypatch.setattr(cli, "read_surface_file", too_big)
    assert main(["surface", str(tmp_path / "any.txt")]) == 2
    assert capsys.readouterr().err == "surface: GF(2^17): no arithmetic tables above order 65536\n"
