import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from wtc.claims import (
    MANIFEST,
    REGISTRY,
    run_claim,
    sweep,
)
from wtc.errors import (
    CapExceededError,
    ParseError,
    ScaleDomainError,
    UnknownClaimError,
)
from wtc.fileformat import load_measure
from wtc import cli
from wtc.grid import MAX_CANDIDATES, ScanFamily, partition_count
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
        # closed-form counts: the cap pair of every claim runs under the
        # candidate cap, and one size more would not
        def family(n):
            return ScanFamily(Interval(0, 2 ** (n + 1)), 0, n + 1, base=2, shifts=3)
        assert REGISTRY["t1-not-t2"].max_scale == 14
        assert family(14).count() == 196_637 <= MAX_CANDIDATES
        assert family(15).count() == 393_247 > MAX_CANDIDATES
        assert REGISTRY["smalldoubling-pivotal"].max_scale == 4
        assert partition_count(2, 4) == 677 <= MAX_CANDIDATES
        assert partition_count(2, 5) == 458_330 > MAX_CANDIDATES

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

    def test_sweep_checks_every_value_first(self, stub_evaluate):
        spec = REGISTRY["cp-not-ainfty"]
        calls = []
        stub_evaluate(spec.id, lambda v: calls.append(v) or [])
        with pytest.raises(CapExceededError):
            sweep(spec.id, [1, 2, 6])
        with pytest.raises(ScaleDomainError):
            sweep(spec.id, [1, 2, Fraction(5, 2)])
        assert calls == []
        assert sweep(spec.id, [1, Fraction(4, 2)]) == [] and calls == [1, 2]

    def test_sweep_draws_at_most_one_value_past_the_cap(self, stub_evaluate):
        spec = REGISTRY["cp-not-ainfty"]
        calls, drawn = [], []
        stub_evaluate(spec.id, lambda v: calls.append(v) or [])

        def ones(n):
            for _ in range(n):
                drawn.append(1)
                yield 1

        with pytest.raises(CapExceededError):
            sweep(spec.id, ones(10 ** 9))
        assert calls == [] and len(drawn) == MAX_CANDIDATES + 1
        assert sweep(spec.id, ones(MAX_CANDIDATES)) == []
        assert len(calls) == MAX_CANDIDATES


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
    """`wtc ARGV...`, run in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def _entry_point(*argv):
    """`python -m wtc.cli ARGV...` in a fresh interpreter."""
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
        out = tmp_path / "m.txt"
        assert cli.main(["construct", name, "--param", param, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_verify_fail_shows_its_rows(self, tmp_path):
        out = tmp_path / "rep.csv"
        r = _entry_point("verify", "powerweight-ap", "--scale", "2", "--out", str(out))
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
    def test_verify_past_cap_refused_before_evaluation(self, claim, scale, stub_evaluate,
                                                       capsys):
        stub_evaluate(claim, lambda v: pytest.fail("a size was evaluated"))
        assert cli.main(["verify", claim, "--scale", scale]) == 2
        assert "exceeds cap" in capsys.readouterr().err

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
        ("powerweight-ap", "alphaExp=-1000000000..5", 0),
        ("powerweight-ap", "alphaExp=-1000000000..4", 0),
        ("powerweight-ap", "alphaExp=0..4..1/100000000", 0)],
        ids=["K=1..1000000", "K=0..3", "K=1/2..3", "alphaExp=0..5..1/1000000000",
             "alphaExp=-1000000000..5", "alphaExp=-1000000000..4",
             "alphaExp=0..4..1/100000000"])
    def test_sweep_range_outside_domain_fails_before_evaluation(self, claim, param, taken,
                                                                monkeypatch, stub_evaluate):
        # a top past the cap, or a range of more values than the cap, fails
        # before any value is drawn, even where the step is fine or the claim
        # has no least size; a bad low end is the first value drawn, and
        # sweep checks it before evaluating any
        stub_evaluate(claim, lambda v: pytest.fail("a size was evaluated"))
        drawn = []
        values = cli._ValueRange.__iter__
        monkeypatch.setattr(cli._ValueRange, "__iter__", lambda self: (
            drawn.append(v) or v for v in values(self)))
        assert cli.main(["sweep", claim, "--param", param]) == 2
        assert len(drawn) == taken

    @pytest.mark.parametrize("lo, hi, step", [
        (0, 1, Fraction(1, 3)), (1, 3, 1), (2, 1, 1), (0, Fraction(1, 2), Fraction(1, 3)),
        (Fraction(-1, 2), Fraction(7, 4), Fraction(3, 4))])
    def test_value_range_is_the_stepped_range(self, lo, hi, step):
        want, v = [], Fraction(lo)
        while v <= hi:
            want.append(v)
            v += step
        values = cli._ValueRange(Fraction(lo), Fraction(hi), step)
        assert len(values) == len(want) and list(values) == want

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

    @pytest.mark.parametrize("p", ["0", "-3", "100000"])
    def test_maximal_exponent_outside_domain_exit_two(self, p, tmp_path):
        cp = tmp_path / "cp.txt"
        _cli("construct", "cp-weight", "--param", "K=1", "--out", str(cp))
        start = time.perf_counter()
        r = _cli("eval", "maximal-integral", "--omega", str(cp), "--interval", "0,1",
                 "--p", p)
        assert time.perf_counter() - start < 2
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")
        assert len(r.stderr.splitlines()) == 1
        assert r.stdout == ""

    @pytest.mark.parametrize("construct, window, levels, want", [
        # remark2's weight has no mass on [-1, -2/3]
        (("remark2",), "-2,2", "-1..0", "0.0833333333333 at [-2,-5/3]\n"),
        # Lebesgue on [-2, 2] has none on [2, 19/9]
        (("lebesgue", "--param", "lo=-2", "--param", "hi=2"), "1,3", "-2..0",
         "0.0833333333333 at [1,10/9]\n"),
    ])
    def test_sup_energy_skips_candidates_without_mass(self, construct, window, levels,
                                                      want, tmp_path):
        m = tmp_path / "m.txt"
        _cli("construct", *construct, "--out", str(m))
        r = _cli("sup", "energy", "--omega", str(m), f"--window={window}",
                 f"--levels={levels}")
        assert (r.returncode, r.stdout, r.stderr) == (0, want, "")

    def test_sup_energy_without_mass_exit_two(self, tmp_path):
        m = tmp_path / "m.txt"
        _cli("construct", "lebesgue", "--out", str(m))
        r = _cli("sup", "energy", "--omega", str(m), "--window=5,7", "--levels=-2..0")
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
        assert _cli("eval", "energy", "--omega", str(m), "--interval=5,7").returncode == 2

    @pytest.mark.parametrize("argv", [
        ("eval", "poisson", "--omega", "steps.txt", "--interval=1e5000,1"),
        ("sup", "avg-density", "--omega", "steps.txt", "--window=0,1e5000", "--levels=0..0"),
        # the witness [0, 3^10000] has 4,772 digits
        ("sup", "avg-density", "--omega", "steps.txt", "--window=0,1",
         "--levels=10000..10000"),
        ("verify", "ap-not-t1", "--scale", "1e5000"),
        ("sweep", "cp-not-ainfty", "--param", "K=1..1e5000"),
        ("construct", "gks-cascade", "--param", "delta=1e5000", "--out", "x.txt"),
        ("construct", "gks-cascade", "--param", "depth=1e5000", "--out", "x.txt"),
    ], ids=["eval-interval", "sup-window", "sup-witness", "verify-scale", "sweep-top",
            "cascade-delta", "cascade-depth"])
    def test_number_too_long_to_print_exit_two(self, argv, tmp_path, monkeypatch):
        # each message, or sup's witness, once printed the number and raised a
        # bare ValueError from Python's int-string digit limit, exit 1 with a
        # traceback
        monkeypatch.chdir(tmp_path)
        _cli("construct", "lebesgue", "--out", "steps.txt")
        r = _cli(*argv)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
        assert not (tmp_path / "x.txt").exists()

    # a value starting with "-" after a space, as after "="
    @pytest.mark.parametrize("spaced, joined", [
        (["eval", "poisson", "--interval", "-1,1"], ["eval", "poisson", "--interval=-1,1"]),
        (["sup", "avg-density", "--window", "-2,2", "--levels=-2..0"],
         ["sup", "avg-density", "--window=-2,2", "--levels=-2..0"]),
        (["sup", "avg-density", "--window=-2,2", "--levels", "-2..0"],
         ["sup", "avg-density", "--window=-2,2", "--levels=-2..0"]),
        (["sup", "avg-density", "--window=-2,2", "--levels=-2..0", "--alpha", "-1/2"],
         ["sup", "avg-density", "--window=-2,2", "--levels=-2..0", "--alpha=-1/2"]),
        (["verify", "t1-not-t2", "--scale", "-1/2"], ["verify", "t1-not-t2", "--scale=-1/2"]),
    ], ids=["interval", "window", "levels", "alpha", "scale"])
    def test_negative_option_value_after_a_space(self, spaced, joined, tmp_path):
        om = str(tmp_path / "om.txt")
        _cli("construct", "lebesgue", "--param", "lo=-2", "--param", "hi=2", "--out", om)
        omega = [] if spaced[0] == "verify" else ["--omega", om]
        r, expected = _cli(*spaced, *omega), _cli(*joined, *omega)
        assert (r.returncode, r.stdout, r.stderr) == \
            (expected.returncode, expected.stdout, expected.stderr)
        assert r.returncode == (2 if spaced[0] == "verify" else 0)

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
        r = _entry_point("verify", "energy-le-pivotal", "--scale", "5",
                         "--out", str(out))
        assert r.returncode == 0
        assert out.read_text().splitlines()[0] == ",".join(CSV_HEADER)

    def test_verify_unknown_exit_two(self):
        assert _entry_point("verify", "no-such-claim").returncode == 2

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


# Runs exact commands in one fresh interpreter, then one that screens in
# floats; prints their exit codes and whether numpy was loaded after each.
_NUMPY_PROBE = r"""
import contextlib, io, json, sys
import wtc
from wtc import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))

open("rows.csv", "w").write("claim,param,statistic,value,bound,verdict\nc,1,s,2,,NA\nc,2,s,3,,NA\n")
exact = [
    run("construct", "gks-cascade", "--param", "depth=3", "--out", "casc.txt"),
    run("construct", "power-weight", "--param", "resolution=3", "--out", "pw.txt"),
    run("eval", "poisson", "--omega", "casc.txt", "--interval=0,1/3", "--alpha=0"),
    run("eval", "energy", "--omega", "pw.txt", "--interval=-1,1"),
    run("eval", "avg-density", "--omega", "casc.txt", "--interval=0,1/3"),
    run("eval", "maximal-integral", "--omega", "pw.txt", "--interval=0,1", "--p=2"),
    run("sup", "avg-density", "--omega", "casc.txt", "--window=0,1", "--levels=-3..-1",
        "--base", "3"),
    run("plot", "rows.csv", "--out", "rows.svg"),
    run("eval", "poisson", "--omega", "missing.txt", "--interval=0,1"),
]
numpy_after_exact = "numpy" in sys.modules
verify = run("verify", "powerweight-ap", "--out", "report.csv")
print(json.dumps([exact, numpy_after_exact, verify, "numpy" in sys.modules]))
"""


def test_numpy_loaded_only_by_float_commands(tmp_path):
    # the probe runs in tmp_path, so it finds wtc where this test found it
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    r = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], cwd=tmp_path, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    exact, numpy_after_exact, verify, numpy_after_verify = json.loads(r.stdout)
    assert exact == [0] * 8 + [2]
    assert not numpy_after_exact
    assert verify == 0 and numpy_after_verify


# Runs CLI commands in one fresh interpreter and prints, after each group,
# which of the lazily imported modules are loaded: wtc's own, and
# `dataclasses` and `inspect`, which no wtc module brings in (numpy imports
# `inspect`).
_LAZY_PROBE = r"""
import contextlib, io, json, sys
LAZY = ("wtc.claims", "wtc.constructions", "wtc.report", "wtc.functionals", "wtc.grid",
        "dataclasses", "inspect")

def loaded():
    return [m for m in LAZY if m in sys.modules]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))

seen = {}
import wtc
seen["import wtc"] = loaded()
from wtc import cli
seen["import wtc.cli"] = loaded()
open("m.txt", "w").write("# wtc-measure v1\natom 1/2 1\nstep 0 1/3 3/2\nstep 1/3 1 1\n")
open("rows.csv", "w").write("claim,param,statistic,value,bound,verdict\nc,1,s,2,,NA\nc,2,s,3,,NA\n")
codes = [run("plot", "rows.csv", "--out", "rows.svg")]
seen["plot"] = loaded()
codes.append(run("eval", "poisson", "--omega", "missing.txt", "--interval=0,1"))
seen["eval of a missing file"] = loaded()
codes += [
    run("eval", "poisson", "--omega", "m.txt", "--interval=0,1/3"),
    run("eval", "energy", "--omega", "m.txt", "--interval=0,1"),
    run("sup", "avg-density", "--omega", "m.txt", "--window=0,1", "--levels=-2..-1"),
]
seen["eval, sup"] = loaded()
codes.append(run("construct", "gks-cascade", "--param", "depth=3", "--out", "c.txt"))
seen["construct"] = loaded()
codes.append(run("verify", "powerweight-ap"))
seen["verify"] = loaded()
from wtc import Interval, Measure, run_claim
exported = [name for name in wtc.__all__ if getattr(wtc, name, None) is None]
print(json.dumps([codes, seen, exported, run_claim is sys.modules["wtc.claims"].run_claim]))
"""


def test_claims_constructions_and_report_load_on_first_use(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    r = subprocess.run([sys.executable, "-c", _LAZY_PROBE], cwd=tmp_path, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    codes, seen, missing, same = json.loads(r.stdout)
    assert codes == [0, 2, 0, 0, 0, 0, 0]
    kernels = ["wtc.functionals", "wtc.grid"]
    assert seen == {"import wtc": [], "import wtc.cli": [], "plot": ["wtc.report"],
                    "eval of a missing file": ["wtc.report"],
                    "eval, sup": ["wtc.report", *kernels],
                    "construct": ["wtc.constructions", "wtc.report", *kernels],
                    "verify": ["wtc.claims", "wtc.constructions", "wtc.report", *kernels,
                               "inspect"]}
    assert missing == [] and same


def _imported(node) -> list:
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    return [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []


def test_no_module_imports_dataclasses():
    importers = sorted(path.name for path in Path(cli.__file__).parent.glob("*.py")
                       if any("dataclasses" in _imported(node) for node in
                              ast.walk(ast.parse(path.read_text(encoding="utf-8")))))
    assert importers == []


def test_claims_load_neither_dataclasses_nor_inspect(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = ("import sys, wtc.claims\n"
             "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "False"]


_BLAS_PROBE = r"""
import contextlib, io, os, sys
from wtc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["construct", "lebesgue", "--out", "l.txt"])
print(code, os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules)
"""


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_runs_numpy_with_one_blas_thread_unless_set(preset, expected, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    r = subprocess.run([sys.executable, "-c", _BLAS_PROBE], cwd=tmp_path, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    # the command ran without numpy, so the variable was set before any import
    assert r.stdout.split() == ["0", expected, "False"]


# numpy routines that call BLAS; the one-thread setting above assumes wtc
# calls none of them
_BLAS_NAMES = {"dot", "matmul", "linalg", "einsum", "tensordot", "inner", "vdot", "outer"}


def test_no_module_calls_a_blas_routine():
    uses = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                    isinstance(node.op, ast.MatMult):
                names = ["@"]
            elif any(m.startswith("numpy") for m in _imported(node)):
                names = [*_imported(node)[0].split("."), *(a.name for a in node.names)]
            uses += [f"{path.name}:{node.lineno}: {n}" for n in names
                     if n in _BLAS_NAMES or n == "@"]
    assert uses == []


# `wtc sup` screens the p = 2, alpha = 0 Ap kinds as the claims do
@pytest.mark.parametrize("files", ["cascade", "steps"])
def test_sup_screened_prints_what_the_plain_scan_prints(files, tmp_path, monkeypatch):
    from wtc import functionals

    monkeypatch.chdir(tmp_path)
    if files == "cascade":
        _cli("construct", "gks-cascade", "--param", "depth=6", "--out", "om.txt")
        _cli("construct", "gks-cascade", "--param", "delta=3/10", "--param", "depth=5",
             "--out", "sg.txt")
        where = ["--window=0,1", "--levels=-4..0", "--base", "3"]
    else:
        _cli("construct", "power-weight", "--param", "resolution=5", "--out", "om.txt")
        _cli("construct", "thm5-part2-omega", "--param", "N=3", "--out", "sg.txt")
        where = ["--window=-2,3", "--levels=-3..1", "--base", "2"]
    plain, screens = functionals.sup_over_family, []

    def unscreened(fn, fam, screen=None):
        screens.append(screen is not None)
        return plain(fn, fam)

    runs = [(kind, extra) for kind in ("classical", "one-tailed", "one-tailed-dual",
                                       "two-tailed", "offset")
            for extra in ([], ["--p", "3"], ["--alpha=1/4"])]
    got = [_cli("sup", kind, "--omega", "om.txt", "--sigma", "sg.txt", *where, *extra)
           for kind, extra in runs]
    monkeypatch.setattr(functionals, "sup_over_family", unscreened)
    want = [_cli("sup", kind, "--omega", "om.txt", "--sigma", "sg.txt", *where, *extra)
            for kind, extra in runs]
    assert [(r.returncode, r.stdout, r.stderr) for r in got] \
        == [(r.returncode, r.stdout, r.stderr) for r in want]
    # offset has p = 2 only
    assert [r.returncode for r in got] \
        == [2 if kind == "offset" and extra[:1] == ["--p"] else 0 for kind, extra in runs]
    # the screen ran where p = 2 and alpha = 0, for every kind but offset
    assert screens == [kind != "offset" and not extra for kind, extra in runs]


_SUP_NUMPY_PROBE = r"""
import contextlib, io, json, sys
from wtc import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))

codes = [run("construct", "power-weight", "--param", "resolution=3", "--out", "pw.txt"),
         run("sup", "avg-density", "--omega", "pw.txt", "--window=-1,1", "--levels=-2..0"),
         run("sup", "maximal-integral", "--omega", "pw.txt", "--window=-1,1",
             "--levels=-2..0")]
exact = "numpy" in sys.modules
codes.append(run("sup", "classical", "--omega", "pw.txt", "--sigma", "pw.txt",
                 "--window=-1,1", "--levels=-2..0"))
print(json.dumps([codes, exact, "numpy" in sys.modules]))
"""


def test_sup_loads_numpy_only_for_a_screened_functional(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    r = subprocess.run([sys.executable, "-c", _SUP_NUMPY_PROBE], cwd=tmp_path, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [[0, 0, 0, 0], False, True]
