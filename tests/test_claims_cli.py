import dataclasses
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from wtc.claims import (
    MANIFEST,
    REGISTRY,
    run_claim,
    sweep,
)
from wtc.config import Config
from wtc.errors import (
    CapExceededError,
    ParseError,
    ScaleDomainError,
    UnknownClaimError,
)
from wtc.fileformat import load_measure
from wtc.grid import ScanFamily, partition_count
from wtc.measure import Interval
from wtc.report import CSV_HEADER, ReportRow, parse_csv, plot_svg, rows_to_csv

EXPECTED_IDS = {
    "ap-not-t1", "t1-not-t2", "t2-equiv-t1", "doubling-ap-equiv",
    "cp-not-ainfty", "cp-smalldoubling-ainfty", "sawyer-ainfty",
    "ainfty-pivotal", "pivotal-not-t1", "energy-le-pivotal",
    "smalldoubling-pivotal", "gks-afrac-doubling", "doubling-energy-floor",
    "powerweight-ap",
}


class TestRegistry:
    def test_manifest_complete(self):
        assert set(MANIFEST) == EXPECTED_IDS

    def test_probe_registered_but_off_manifest(self):
        assert "dual-pivotal-probe" in REGISTRY
        assert "dual-pivotal-probe" not in MANIFEST

    def test_unknown_claim(self):
        with pytest.raises(UnknownClaimError):
            run_claim("no-such-claim")

    def test_scale_cap(self):
        with pytest.raises(CapExceededError):
            run_claim("t1-not-t2", scale=100)

    def test_equal_sizes_rejected(self):
        # alphaExp 0 halves to itself: one size cannot show a trend
        with pytest.raises(ScaleDomainError):
            run_claim("powerweight-ap", scale=0)
        assert sweep("powerweight-ap", [0])

    def test_energy_le_pivotal_passes(self):
        rep = run_claim("energy-le-pivotal", scale=5)
        assert rep.passed
        assert all(r.value <= 0.5 for r in rep.rows)

    def test_probe_is_inconclusive(self):
        rep = run_claim("dual-pivotal-probe", scale=4)
        assert rep.passed
        assert {r.verdict for r in rep.rows} == {"INCONCLUSIVE"}

    def test_caps_fit_the_default_candidate_cap(self):
        # closed-form counts: the cap pair of every claim runs at the default
        # config, and one size more would not
        cfg = Config()

        def family(n):
            return ScanFamily(Interval(0, 2 ** (n + 1)), 0, n + 1, base=2, shifts=cfg.shifts)
        assert REGISTRY["t1-not-t2"].max_scale == 14
        assert family(14).count() == 196_637 <= cfg.max_candidates
        assert family(15).count() == 393_247 > cfg.max_candidates
        assert REGISTRY["smalldoubling-pivotal"].max_scale == 4
        assert partition_count(2, 4) == 677 <= cfg.max_candidates
        assert partition_count(2, 5) == 458_330 > cfg.max_candidates

    def test_report_carries_witnesses(self):
        rep = run_claim("t1-not-t2", scale=4)
        assert any(name == "t1_sq_sup" for (_, name) in rep.witnesses)


class TestScaleDomain:
    @pytest.mark.parametrize("claim, scale", [
        ("cp-not-ainfty", Fraction(3, 2)),     # K is a count
        ("cp-not-ainfty", 0),
        ("t2-equiv-t1", -1),
        ("sawyer-ainfty", -4),
        ("doubling-energy-floor", -2),
        ("pivotal-not-t1", 1),                 # the pivotal pair needs N >= 2
    ])
    def test_size_outside_domain_rejected(self, claim, scale):
        with pytest.raises(ScaleDomainError):
            run_claim(claim, scale)
        with pytest.raises(ScaleDomainError):
            sweep(claim, [scale])

    def test_every_claim_has_a_domain(self):
        # a count or depth has a least size; the power-weight exponent has none
        for spec in REGISTRY.values():
            if isinstance(spec.default_scale, int):
                assert spec.min_scale is not None
            assert spec.min_scale is None or spec.min_scale <= spec.default_scale

    def test_sweep_checks_every_value_first(self, monkeypatch):
        spec = REGISTRY["cp-not-ainfty"]
        calls = []
        monkeypatch.setitem(REGISTRY, spec.id, dataclasses.replace(
            spec, evaluate=lambda v, config: calls.append(v) or []))
        with pytest.raises(CapExceededError):
            sweep(spec.id, [1, 2, 6])
        with pytest.raises(ScaleDomainError):
            sweep(spec.id, [1, 2, Fraction(5, 2)])
        assert calls == []
        assert sweep(spec.id, [1, Fraction(4, 2)]) == [] and calls == [1, 2]


class TestSweep:
    def test_empty_range_is_header_only(self):
        assert rows_to_csv(sweep("energy-le-pivotal", [])) == \
            ",".join(CSV_HEADER) + "\n"

    def test_row_block_per_value(self):
        rows = sweep("dual-pivotal-probe", [4, 8])
        assert [r.param for r in rows] == [4, 4, 4, 8, 8, 8]

    def test_determinism(self):
        a = rows_to_csv(sweep("energy-le-pivotal", [5, 10]))
        b = rows_to_csv(sweep("energy-le-pivotal", [5, 10]))
        assert a == b


class TestCsv:
    def test_round_trip(self):
        text = rows_to_csv(sweep("energy-le-pivotal", [5]))
        rows = parse_csv(text)
        assert rows[0].claim == "energy-le-pivotal"
        assert rows[0].bound == 0.5
        assert rows[0].verdict == "PASS"

    def test_infinities_round_trip(self):
        rows = [ReportRow("c", 1, "s", math.inf, -math.inf, "NA"),
                ReportRow("c", 2, "s", -math.inf, math.inf, "NA")]
        text = rows_to_csv(rows)
        assert text.splitlines()[1:] == ["c,1,s,inf,-inf,NA", "c,2,s,-inf,inf,NA"]
        assert parse_csv(text) == rows

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_csv("a,b,c\n1,2,3\n")

    def test_bad_field_count(self):
        with pytest.raises(ParseError) as e:
            parse_csv(",".join(CSV_HEADER) + "\nx,1,s,2\n")
        assert "line 2" in str(e.value)

    def test_bad_number(self):
        with pytest.raises(ParseError):
            parse_csv(",".join(CSV_HEADER) + "\nx,1,s,notanumber,,PASS\n")


class TestSvg:
    def test_deterministic_bytes(self):
        rows = parse_csv(rows_to_csv(sweep("energy-le-pivotal", [5, 10, 15])))
        assert plot_svg(rows) == plot_svg(rows)

    def test_single_point_chart(self):
        rows = parse_csv(",".join(CSV_HEADER) + "\nc,1,s,2.5,,NA\n")
        svg = plot_svg(rows)
        assert svg.startswith('<?xml version="1.0"')
        assert "<circle" in svg

    def test_log_scale_drops_nonpositive(self):
        rows = parse_csv(",".join(CSV_HEADER)
                         + "\nc,1,s,0,,NA\nc,2,s,10,,NA\n")
        assert "circle" in plot_svg(rows, log_scale=True)

    def test_no_plottable_rows(self):
        rows = parse_csv(",".join(CSV_HEADER) + "\nc,1,s,inf,,NA\n")
        with pytest.raises(ParseError):
            plot_svg(rows)


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "wtc.cli", *argv],
                          capture_output=True, text=True)


class TestCli:
    def test_construct_eval_round_trip(self, tmp_path):
        out = tmp_path / "m.txt"
        r = _cli("construct", "gks-cascade", "--param", "delta=1/4",
                 "--param", "depth=3", "--out", str(out))
        assert r.returncode == 0
        m = load_measure(out)
        assert m.total_mass() == 1
        r = _cli("eval", "poisson", "--omega", str(out), "--interval", "0,1")
        assert r.returncode == 0
        assert float(r.stdout) == pytest.approx(1.0)

    @pytest.mark.parametrize("depth", ["-1", "1/2"])
    def test_construct_bad_depth_exit_two(self, tmp_path, depth):
        r = _cli("construct", "gks-cascade", "--param", f"depth={depth}",
                 "--out", str(tmp_path / "m.txt"))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize("name,param", [
        ("thm5-part2-omega", "N=5/2"), ("thm5-part1-sigma", "K=3/2"),
        ("pivotal-sigma", "N=7/2"), ("cp-weight", "K=3/2"),
        ("cp-weight", "p=5/2"), ("power-weight", "resolution=7/2")])
    def test_construct_fractional_int_param_exit_two(self, tmp_path, name, param):
        out = tmp_path / "m.txt"
        r = _cli("construct", name, "--param", param, "--out", str(out))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("name,params", [
        ("cp-weight", ["K=0"]), ("cp-weight", ["K=-2"]),
        ("power-weight", ["resolution=-1"]),
        ("lebesgue", ["lo=1", "hi=0"]), ("power-weight", ["lo=2", "hi=-2"]),
        ("lebesgue", ["density=-1"])])
    def test_construct_param_outside_domain_exit_two(self, tmp_path, name, params):
        out = tmp_path / "m.txt"
        r = _cli("construct", name, *(a for p in params for a in ("--param", p)),
                 "--out", str(out))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("name,param", [("lebesgue", "foo=1"),
                                            ("power-weight", "resolutoin=3")])
    def test_construct_unknown_param_exit_two(self, tmp_path, name, param):
        out = tmp_path / "m.txt"
        r = _cli("construct", name, "--param", param, "--out", str(out))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and param.split("=")[0] in r.stderr
        assert len(r.stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("name,param", [
        ("gks-cascade", "depth=14"), ("cp-weight", "K=6"),
        ("power-weight", "resolution=19")])
    def test_construct_size_past_bound_exit_two(self, tmp_path, name, param, capsys):
        # refused before anything is built: depth 40 and K = 9 once ran out
        # of memory
        from wtc import cli

        out = tmp_path / "m.txt"
        assert cli.main(["construct", name, "--param", param, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_verify_fail_shows_its_rows(self, tmp_path):
        out = tmp_path / "rep.csv"
        r = _cli("verify", "powerweight-ap", "--scale", "2", "--out", str(out))
        assert r.returncode == 1
        assert [line.split() for line in r.stdout.splitlines()] == [
            ["analytic_bound", "2", "inf", "INFINITE"],
            ["analytic_bound", "1", "inf", "INFINITE"],
            ["sup_to_bound", "2", "NA", "FAIL"], ["sup_to_bound", "1", "NA", "FAIL"],
            ["bound_to_sup", "2", "NA", "FAIL"], ["bound_to_sup", "1", "NA", "FAIL"],
            ["powerweight-ap:", "FAIL"]]
        assert out.read_text().splitlines()[3:] == [
            "powerweight-ap,2,sup_to_bound,,4,FAIL", "powerweight-ap,1,sup_to_bound,,4,FAIL",
            "powerweight-ap,2,bound_to_sup,,4,FAIL", "powerweight-ap,1,bound_to_sup,,4,FAIL"]

    @pytest.mark.parametrize("claim, scale", [("t1-not-t2", "8"),
                                              ("smalldoubling-pivotal", "4")])
    def test_verify_past_cap_refused_before_evaluation(self, claim, scale, monkeypatch,
                                                       capsys):
        from wtc import cli

        spec = REGISTRY[claim]
        monkeypatch.setitem(REGISTRY, claim, dataclasses.replace(
            spec, evaluate=lambda v, config: pytest.fail("a size was evaluated")))
        assert cli.main(["verify", claim, "--scale", scale]) == 2
        assert "exceeds cap" in capsys.readouterr().err

    def test_unknown_config_key_exit_two(self, tmp_path):
        cfg = tmp_path / "wtc.cfg"
        cfg.write_text("shifts=2\nno_such_key=3\n")
        r = _cli("--config", str(cfg), "verify", "energy-le-pivotal",
                 "--scale", "5")
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and "no_such_key" in r.stderr
        assert len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize("key", ["min_level", "max_level", "partition_depth",
                                     "stopping_depth", "bounded_slack"])
    def test_removed_config_key_exit_two(self, tmp_path, key):
        # these sizes are fixed per claim; a file that sets one is an error,
        # not a silent no-op
        cfg = tmp_path / "wtc.cfg"
        cfg.write_text(f"shifts=2\n{key}=3\n")
        r = _cli("--config", str(cfg), "verify", "energy-le-pivotal",
                 "--scale", "5")
        assert r.returncode == 2
        assert r.stderr.startswith("error: unknown config key(s)")
        assert key in r.stderr
        assert len(r.stderr.splitlines()) == 1

    def test_verify_equal_sizes_exit_two(self):
        r = _cli("verify", "powerweight-ap", "--scale", "0")
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("verify", "cp-not-ainfty", "--scale", "3/2"),
        ("verify", "t2-equiv-t1", "--scale", "-1"),
        ("verify", "sawyer-ainfty", "--scale", "-4"),
        ("verify", "doubling-energy-floor", "--scale", "-2"),
        ("sweep", "cp-not-ainfty", "--param", "K=1..6"),
        ("sweep", "cp-not-ainfty", "--param", "K=1..1000000"),
        ("sweep", "cp-not-ainfty", "--param", "K=0..2"),
        ("sweep", "cp-not-ainfty", "--param", "K=1..2..1/2"),
    ])
    def test_size_outside_domain_exit_two(self, argv, tmp_path):
        out = tmp_path / "out.csv"
        r = _cli(*argv, "--out", str(out))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.splitlines()) == 1
        assert r.stdout == "" and not out.exists()

    @pytest.mark.parametrize("claim, param, taken", [
        ("cp-not-ainfty", "K=1..1000000", 0), ("cp-not-ainfty", "K=0..3", 1),
        ("cp-not-ainfty", "K=1/2..3", 1),
        ("powerweight-ap", "alphaExp=0..5..1/1000000000", 0),
        ("powerweight-ap", "alphaExp=-1000000000..5", 0)],
        ids=["K=1..1000000", "K=0..3", "K=1/2..3", "alphaExp=0..5..1/1000000000",
             "alphaExp=-1000000000..5"])
    def test_sweep_range_outside_domain_fails_before_evaluation(self, claim, param, taken,
                                                                monkeypatch):
        # a top past the cap fails before any value is drawn, even where the
        # step is fine or the claim has no least size; a bad low end is the
        # first value drawn, and sweep checks it before evaluating any
        from wtc import cli

        spec = REGISTRY[claim]
        monkeypatch.setitem(REGISTRY, claim, dataclasses.replace(
            spec, evaluate=lambda v, config: pytest.fail("a size was evaluated")))
        drawn = []
        values = cli._range_values
        monkeypatch.setattr(cli, "_range_values", lambda *args: (
            drawn.append(v) or v for v in values(*args)))
        assert cli.main(["sweep", claim, "--param", param]) == 2
        assert len(drawn) == taken

    @pytest.mark.parametrize("argv", [
        ("eval", "classical", "--interval", "0,1", "--p", "1"),
        ("eval", "one-tailed", "--interval", "0,1", "--p", "0"),
        ("eval", "offset", "--interval", "0,1", "--p", "3"),
        ("sup", "two-tailed", "--window", "0,1", "--levels=-1..0", "--p", "1"),
    ])
    def test_ap_exponent_outside_domain_exit_two(self, argv, tmp_path):
        m = tmp_path / "m.txt"
        _cli("construct", "lebesgue", "--out", str(m))
        r = _cli(*argv, "--omega", str(m), "--sigma", str(m))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.splitlines()) == 1
        assert r.stdout == ""

    @pytest.mark.parametrize("functional", ["poisson", "one-tailed"])
    def test_poisson_alpha_at_least_one_exit_two(self, functional, tmp_path):
        m = tmp_path / "m.txt"
        _cli("construct", "lebesgue", "--param", "lo=2", "--param", "hi=3",
             "--out", str(m))
        r = _cli("eval", functional, "--omega", str(m), "--sigma", str(m),
                 "--interval", "0,1", "--alpha", "3")
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.splitlines()) == 1
        assert r.stdout == ""

    def test_sup_command(self, tmp_path):
        om = tmp_path / "om.txt"
        sg = tmp_path / "sg.txt"
        _cli("construct", "lebesgue", "--param", "hi=2", "--out", str(om))
        _cli("construct", "lebesgue", "--param", "hi=2", "--out", str(sg))
        r = _cli("sup", "classical", "--omega", str(om), "--sigma", str(sg),
                 "--window", "0,2", "--levels=-2..1", "--base", "2")
        assert r.returncode == 0
        assert float(r.stdout.split()[0]) == pytest.approx(1.0)

    def test_verify_pass_exit_zero(self, tmp_path):
        out = tmp_path / "rep.csv"
        r = _cli("verify", "energy-le-pivotal", "--scale", "5",
                 "--out", str(out))
        assert r.returncode == 0
        assert out.read_text().splitlines()[0] == ",".join(CSV_HEADER)

    def test_verify_unknown_exit_two(self):
        assert _cli("verify", "no-such-claim").returncode == 2

    def test_usage_error_exit_two(self):
        assert _cli("eval", "classical", "--interval", "0,1").returncode == 2
        assert _cli("sup", "classical", "--omega", "x", "--window", "0,1",
                    "--levels", "zz").returncode == 2

    def test_sweep_and_plot(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        svg_path = tmp_path / "s.svg"
        r = _cli("sweep", "powerweight-ap",
                 "--param", "alphaExp=0..1/2..1/2", "--out", str(csv_path))
        assert r.returncode == 0
        rows = parse_csv(csv_path.read_text())
        assert {row.verdict for row in rows} <= {"FINITE", "PASS"}
        r = _cli("plot", str(csv_path), "--out", str(svg_path))
        assert r.returncode == 0
        first = svg_path.read_bytes()
        _cli("plot", str(csv_path), "--out", str(svg_path))
        assert svg_path.read_bytes() == first

    def test_sweep_wrong_param_name(self):
        r = _cli("sweep", "powerweight-ap", "--param", "beta=0..1")
        assert r.returncode == 2

    def test_plot_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,report\n")
        r = _cli("plot", str(bad), "--out", str(tmp_path / "x.svg"))
        assert r.returncode == 2
