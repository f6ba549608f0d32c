"""Job-file driver: config validation, reports, golden fixtures, exit codes."""

import json
from pathlib import Path

import pytest

from g2points.cli import (ConfigError, decode_coefficient, decode_series,
                          emit_report, main, parse_config, run_job)
from g2points.coleman import single_point_criterion
from g2points.padic import DEFAULT_PRECISION, strassmann_count

from contract import (assert_lists_naive_points, point_keys,
                      report_point_keys)

FIXTURES = Path(__file__).parent / "fixtures"

MINIMAL = {"f_coeffs": [0, 60, -112, 65, -14, 1], "chabauty_prime": 7,
           "generator": {"u_coeffs": [-3, 1], "v_coeffs": [6]}}


def _fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def _variant(**overrides) -> str:
    cfg = dict(MINIMAL)
    cfg.update(overrides)
    return json.dumps(cfg)


@pytest.fixture(scope="module")
def flynn_config():
    return parse_config(_fixture("flynn.json"))


@pytest.fixture(scope="module")
def flynn_report(flynn_config):
    return run_job(flynn_config)


@pytest.fixture(scope="module")
def golden_report():
    return json.loads(_fixture("flynn_report.json"))


class TestParseConfig:
    def test_worked_config_accepted(self, flynn_config):
        cfg = flynn_config
        assert cfg.curve.f_coeffs == (0, 60, -112, 65, -14, 1)
        assert cfg.chabauty_prime == 7
        assert cfg.aux_primes == (11, 13, 17, 23)
        assert cfg.generator.degree() == 1
        assert len(cfg.torsion) == 4
        assert all(order == 2 for _, order in cfg.torsion)
        assert cfg.search_bound == 20 and cfg.precision == 20
        assert cfg.iterations == 10 and cfg.precision_escalations == 2

    def test_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL))
        assert cfg.aux_primes == () and cfg.torsion == ()
        assert cfg.search_bound == 20
        assert cfg.precision == DEFAULT_PRECISION
        assert cfg.iterations == 10 and cfg.precision_escalations == 2

    def test_rational_strings_accepted(self):
        cfg = parse_config(_variant(
            generator={"u_coeffs": ["-3/1", 1], "v_coeffs": ["6"]}))
        assert cfg.generator.degree() == 1

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{")

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config("[1, 2]")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'curve'"):
            parse_config(_variant(curve=[1]))

    def test_missing_required_key(self):
        cfg = dict(MINIMAL)
        del cfg["generator"]
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config(json.dumps(cfg))

    def test_f_wrong_length(self):
        with pytest.raises(ConfigError, match="6 integers"):
            parse_config(_variant(f_coeffs=[0, 60, -112, 65, -14]))

    def test_f_non_integer_entry_names_index(self):
        with pytest.raises(ConfigError) as info:
            parse_config(_variant(f_coeffs=[0, "60", -112, 65, -14, 1]))
        assert info.value.field == "f_coeffs[1]"

    def test_f_not_monic(self):
        with pytest.raises(ConfigError, match="monic"):
            parse_config(_variant(f_coeffs=[0, 60, -112, 65, -14, 2]))

    def test_f_repeated_root(self):
        with pytest.raises(ConfigError, match="repeated root"):
            parse_config(_variant(f_coeffs=[0, 0, 0, 0, 0, 1]))

    def test_prime_two_rejected(self):
        with pytest.raises(ConfigError, match="p = 2 is not supported"):
            parse_config(_variant(chabauty_prime=2))

    def test_composite_prime_rejected(self):
        with pytest.raises(ConfigError, match="9 is not prime"):
            parse_config(_variant(chabauty_prime=9))

    def test_bad_reduction_prime_rejected(self):
        with pytest.raises(ConfigError, match="bad reduction at 5"):
            parse_config(_variant(chabauty_prime=5))

    def test_aux_prime_rejection_names_index(self):
        with pytest.raises(ConfigError) as info:
            parse_config(_variant(aux_primes=[11, 9]))
        assert info.value.field == "aux_primes[1]"

    def test_large_aux_prime_checked_without_trial_division(self):
        q = 2 ** 61 - 1
        assert parse_config(_variant(aux_primes=[q])).aux_primes == (q,)
        with pytest.raises(ConfigError, match="%d is not prime" % (q + 2)):
            parse_config(_variant(aux_primes=[q + 2]))

    def test_generator_off_jacobian(self):
        with pytest.raises(ConfigError, match="generator"):
            parse_config(_variant(
                generator={"u_coeffs": [-4, 1], "v_coeffs": [6]}))

    def test_generator_v_degree_too_large(self):
        with pytest.raises(ConfigError, match="v degree"):
            parse_config(_variant(
                generator={"u_coeffs": [-3, 1], "v_coeffs": [6, 1]}))

    def test_malformed_rational(self):
        with pytest.raises(ConfigError, match="malformed rational"):
            parse_config(_variant(
                generator={"u_coeffs": ["three", 1], "v_coeffs": [6]}))

    def test_torsion_missing_order(self):
        with pytest.raises(ConfigError, match="missing order"):
            parse_config(_variant(
                torsion=[{"u_coeffs": [0, 1], "v_coeffs": []}]))

    def test_torsion_order_must_be_positive(self):
        with pytest.raises(ConfigError, match="at least 1"):
            parse_config(_variant(
                torsion=[{"u_coeffs": [0, 1], "v_coeffs": [], "order": 0}]))

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config(_variant(search_bound=True))

    def test_budgets_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(_variant(budgets={"retries": 3}))

    def test_hypothesis_flag_must_be_asserted(self):
        with pytest.raises(ConfigError, match="declare it true"):
            parse_config(_variant(hypotheses={"rank_one": False}))


class TestRunJob:
    def test_complete_with_ten_points(self, flynn_report):
        assert flynn_report.status == "complete"
        assert len(flynn_report.result.points) == 10
        assert flynn_report.diagnostics == []

    def test_wrong_torsion_order_is_an_error_status(self):
        torsion = [{"u_coeffs": [0, 1], "v_coeffs": [], "order": 4}]
        cfg = parse_config(_variant(torsion=torsion))
        rep = run_job(cfg)
        assert rep.status == "error"
        assert rep.result is None
        assert any("not minimal" in d for d in rep.diagnostics)
        assert "diagnostic:" in emit_report(rep, "human")

    def test_huge_torsion_order_is_an_error_status(self):
        # the (0, 0) entry claims 2 * (2^61 - 1), which the torsion bound 16
        # does not divide; it is refused without being factored
        job = json.loads(_fixture("flynn.json"))
        job["torsion"][0]["order"] = 2 * (2 ** 61 - 1)
        rep = run_job(parse_config(json.dumps(job)))
        assert rep.status == "error"
        assert any("does not divide the torsion bound" in d
                   for d in rep.diagnostics)

    def test_unexpected_exception_is_an_error_status(self, flynn_config,
                                                     monkeypatch):
        import g2points.cli as cli

        def boom(ctx):
            raise RuntimeError("sieve exploded")

        monkeypatch.setattr(cli, "run_sieve", boom)
        rep = run_job(flynn_config)
        assert rep.status == "error"
        assert rep.result is None
        assert rep.diagnostics == ["RuntimeError: sieve exploded"]
        assert json.loads(emit_report(rep, "machine"))["status"] == "error"

    def test_exception_without_message_closes_with_its_name(self, flynn_config,
                                                           monkeypatch):
        import g2points.cli as cli

        def no_memory(ctx):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_sieve", no_memory)
        rep = run_job(flynn_config)
        assert rep.status == "error"
        assert rep.closing == "aborted: MemoryError"
        assert rep.diagnostics == ["MemoryError: "]

    def test_determinism_modulo_telemetry(self, flynn_config, flynn_report):
        again = run_job(flynn_config)
        d1 = json.loads(emit_report(flynn_report, "machine"))
        d2 = json.loads(emit_report(again, "machine"))
        d1.pop("telemetry"), d2.pop("telemetry")
        assert d1 == d2

    def test_unknown_format_rejected(self, flynn_report):
        with pytest.raises(ValueError, match="unknown format"):
            emit_report(flynn_report, "yaml")


class TestGoldenFixtures:
    def test_machine_report(self, flynn_report):
        assert_lists_naive_points(
            flynn_report.config.curve.f_coeffs, flynn_report.status,
            point_keys(rec.point for rec in flynn_report.result.points))
        got = json.loads(emit_report(flynn_report, "machine"))
        got.pop("telemetry")
        rendered = json.dumps(got, sort_keys=True, indent=2) + "\n"
        assert rendered == _fixture("flynn_report.json")

    def test_human_report(self, flynn_report):
        lines = emit_report(flynn_report, "human").split("\n")
        assert lines[-1].startswith("time ")
        assert "\n".join(lines[:-1]) + "\n" == _fixture("flynn_report.txt")

    def test_budget_zero_report(self, capsys):
        rc = main(["run", str(FIXTURES / "flynn_budget0.json"),
                   "--format", "machine"])
        assert rc == 2
        got = json.loads(capsys.readouterr().out)
        assert_lists_naive_points(got["curve"]["f_coeffs"], got["status"],
                                  report_point_keys(got))
        got.pop("telemetry")
        rendered = json.dumps(got, sort_keys=True, indent=2) + "\n"
        assert rendered == _fixture("flynn_budget0_report.json")

    def test_precision_40_report(self, capsys):
        rc = main(["run", str(FIXTURES / "flynn.json"), "--precision", "40",
                   "--format", "machine"])
        assert rc == 0
        got = json.loads(capsys.readouterr().out)
        assert_lists_naive_points(got["curve"]["f_coeffs"], got["status"],
                                  report_point_keys(got))
        assert got.pop("telemetry")["precision"] == 40
        rendered = json.dumps(got, sort_keys=True, indent=2) + "\n"
        assert rendered == _fixture("flynn_prec40_report.json")


class TestCertificateReplay:
    """The machine report alone must reproduce every zero count."""

    def test_point_certificates(self, golden_report):
        report = golden_report
        p = report["chabauty_prime"]
        assert len(report["points"]) == 10
        for entry in report["points"]:
            cert = entry["certificate"]
            series = decode_series(cert["series"])
            assert strassmann_count(series) == cert["zero_count"] == 1
            spc = single_point_criterion(cert["v_w"], p, cert["n"], series)
            assert spc is cert["single_point_criterion"] is True

    def test_disc_certificates(self, golden_report):
        report = golden_report
        assert len(report["disc_certificates"]) == 8
        for cert in report["disc_certificates"]:
            series = decode_series(cert,
                                   coefficients_key="lambda_coefficients")
            assert strassmann_count(series) == cert["zero_count"]
            assert cert["zero_count"] == cert["known_count"]

    def test_coefficient_encoding_round_trip(self):
        c = decode_coefficient({"v": -2, "unit": 45, "rel": 6}, 7)
        assert c.valuation == -2 and c.unit_part() == 45
        assert c.rel_precision == 6
        assert decode_coefficient({"zero": "exact"}, 7).is_exact_zero()
        floor = decode_coefficient({"zero_floor": 5}, 7)
        assert floor.is_zeroish() and floor.valuation == 5

    def test_hypotheses_block(self, golden_report):
        hyp = golden_report["hypotheses"]
        assert hyp["rank_one"] is True and hyp["simple_jacobian"] is True
        assert len(hyp["statements"]) == 4
        assert "conditionally" in hyp["note"]


class TestMain:
    def test_complete_run_exits_zero(self, capsys):
        rc = main(["run", str(FIXTURES / "flynn.json"), "--format", "machine"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "complete"
        assert out["schema"] == "g2points-report/1"

    def test_missing_file_exits_one(self, capsys):
        rc = main(["run", "/no/such/job.json"])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(_variant(chabauty_prime=2))
        rc = main(["run", str(path)])
        assert rc == 1
        assert "chabauty_prime" in capsys.readouterr().err

    def test_error_status_exits_one(self, tmp_path, capsys):
        torsion = [{"u_coeffs": [0, 1], "v_coeffs": [], "order": 4}]
        path = tmp_path / "order.json"
        path.write_text(_variant(torsion=torsion))
        rc = main(["run", str(path), "--format", "machine"])
        captured = capsys.readouterr()
        assert rc == 1
        assert json.loads(captured.out)["status"] == "error"
        assert "not minimal" in captured.err

    @pytest.mark.parametrize("overrides, missing", [
        (dict(torsion=[], chabauty_prime=11, aux_primes=[7, 13]), "(0, 0)"),
        (dict(torsion=json.loads(_fixture("flynn.json"))["torsion"][:3]),
         "(5, 0)")], ids=["no-torsion", "three-of-four"])
    def test_torsion_missing_rational_two_torsion_exits_one(
            self, tmp_path, capsys, overrides, missing):
        job = dict(json.loads(_fixture("flynn.json")), **overrides)
        path = tmp_path / "torsion.json"
        path.write_text(json.dumps(job))
        rc = main(["run", str(path), "--format", "machine"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["status"] == "error"
        assert ("misses the rational 2-torsion point %s" % missing
                in report["closing"])

    def test_unresolved_discs_are_reported(self, tmp_path, capsys):
        # at precision 4 with no escalation the two-point discs (3, 1) and
        # (3, 6) stay unresolved: they get no certificate, and both report
        # formats still render
        job = json.loads(_fixture("flynn.json"))
        job.update(precision=4,
                   budgets={"iterations": 10, "precision_escalations": 0})
        path = tmp_path / "prec4.json"
        path.write_text(json.dumps(job))
        rc = main(["run", str(path), "--format", "machine"])
        assert rc == 2
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "inconclusive"
        assert out["iterations"] == 1
        assert out["surviving_classes"]["count"] == 144
        assert len(out["disc_certificates"]) == 6
        deepened = [e for e in out["sieve_trace"] if e["step"] == "deepen"]
        assert [e["unresolved_discs"] for e in deepened] == [[[3, 1], [3, 6]]]
        assert out["notes"] == ["zero count unresolved on disc (3, 1)",
                                "zero count unresolved on disc (3, 6)"]
        assert main(["run", str(path)]) == 2
        human = capsys.readouterr().out
        assert "residue discs: 6 certified, 6 resolved" in human
        assert ("residue discs: 6 certified, 6 resolved; unresolved: "
                "(3,1), (3,6)\n") in human

    def test_max_iter_override(self, capsys):
        rc = main(["run", str(FIXTURES / "flynn.json"), "--max-iter", "0",
                   "--format", "machine"])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["status"] == "inconclusive"

    def test_precision_override_echoed(self, capsys):
        rc = main(["run", str(FIXTURES / "flynn.json"), "--max-iter", "0",
                   "--precision", "24", "--format", "machine"])
        assert rc == 2
        out = json.loads(capsys.readouterr().out)
        assert out["telemetry"]["precision"] == 24

    def test_invalid_override_values(self, capsys):
        assert main(["run", str(FIXTURES / "flynn.json"),
                     "--precision", "0"]) == 1
        assert main(["run", str(FIXTURES / "flynn.json"),
                     "--max-iter", "-1"]) == 1
