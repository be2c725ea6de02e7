"""In-process fuzz of `wtc.cli.main` over `construct`, `eval` and `sup`:
every drawn command line exits 0, or exits 2 with exactly one `error:` line
on stderr, and no exception escapes.  Counts and depths are drawn at most 6,
so no draw builds a large measure."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wtc import cli
from wtc.fileformat import save_measure
from wtc.measure import Interval, Measure

SMALL = st.integers(-2, 6).map(str)
NUMBERS = st.one_of(
    SMALL, st.fractions(-3, 6, max_denominator=8).map(str),
    st.sampled_from(["", "x", "1/0", "nan", "inf", "-inf", "1e400", "2000", "-2000", "0.5",
                     "3/", "--1"]))
FUNCTIONALS = ["avg-density", "poisson", "energy", "maximal-integral", *cli._AP_KIND]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    measures = {
        "leb.txt": Measure.lebesgue(Interval(-1, 2)),
        "steps.txt": Measure.from_steps([(-2, 0, 3), (1, 3, "1/2")]),
        "atoms.txt": Measure.point_mass(0, 1) + Measure.point_mass("1/2", 2),
        "mixed.txt": Measure.lebesgue(Interval(0, 1)) + Measure.point_mass(1, 1),
    }
    for name, m in measures.items():
        save_measure(m, root / name)
    return root, [str(root / n) for n in (*measures, "missing.txt")]


def _pair(numbers):
    return st.tuples(numbers, numbers).map(",".join)


def _mostly(good, bad):
    """good three draws in four, else bad."""
    return st.sampled_from((good, good, good, bad)).flatmap(lambda s: s)


@st.composite
def construct_argv(draw, root):
    name = draw(_mostly(st.sampled_from(sorted(cli._CONSTRUCTIONS)), st.just("no-such")))
    names, _ = cli._CONSTRUCTIONS.get(name, ("lo", None))
    keys = _mostly(st.sampled_from(names.split()), st.just("foo"))
    params = draw(st.lists(st.tuples(keys, NUMBERS), max_size=3))
    argv = ["construct", name]
    for key, value in params:
        argv += ["--param", f"{key}={value}"]
    return argv + ["--out", str(root / "out.txt")]


@st.composite
def local_argv(draw, paths):
    command = draw(st.sampled_from(["eval", "sup"]))
    argv = [command, draw(_mostly(st.sampled_from(FUNCTIONALS), st.just("no-such"))),
            "--omega", draw(st.sampled_from(paths))]
    if draw(_mostly(st.just(True), st.just(False))):
        argv += ["--sigma", draw(st.sampled_from(paths))]
    # proper intervals, and degenerate, reversed and malformed ones
    proper = st.tuples(st.fractions(-2, 2, max_denominator=4), st.integers(1, 4)).map(
        lambda t: f"{t[0]},{t[0] + t[1]}")
    interval = draw(_mostly(proper, st.one_of(_pair(SMALL), _pair(NUMBERS), NUMBERS)))
    if command == "eval":
        argv += [f"--interval={interval}"]
    else:
        levels = st.tuples(st.integers(-3, 2), st.integers(-3, 2)).map(
            lambda t: f"{t[0]}..{t[1]}")
        argv += [f"--window={interval}", f"--levels={draw(_mostly(levels, NUMBERS))}",
                 "--base", draw(_mostly(st.sampled_from(["2", "3"]), st.just("4")))]
        if draw(st.booleans()):
            argv = ["--shifts", draw(_mostly(st.sampled_from(["1", "2"]), NUMBERS)), *argv]
    if draw(st.booleans()):
        argv += [f"--p={draw(_mostly(SMALL, NUMBERS))}"]
    if draw(st.booleans()):
        argv += [f"--alpha={draw(NUMBERS)}"]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(argv):
    code, out, err = _run(argv)
    assert code in (0, 2), (argv, code, out, err)
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    else:
        assert out and not err, (argv, out, err)


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def test_construct_fuzz(files):
    root, _ = files

    @SETTINGS
    @given(construct_argv(root))
    def run(argv):
        _check(argv)
    run()


def test_eval_and_sup_fuzz(files):
    _, paths = files

    @SETTINGS
    @given(local_argv(paths))
    def run(argv):
        _check(argv)
    run()


@pytest.mark.parametrize("argv", [
    ["construct", "pivotal-omega", "--param", "N=1e400"],       # built 10^400 atoms
    ["construct", "cp-weight", "--param", "p=14"],              # ZeroDivisionError
    ["eval", "classical", "--interval=-1,2", "--alpha=2000"],   # ZeroDivisionError
], ids=["pivotal-huge-N", "cp-p-14", "classical-alpha-2000"])
def test_inputs_that_once_escaped(files, argv):
    root, paths = files
    if argv[0] == "construct":
        argv = [*argv, "--out", str(root / "out.txt")]
    else:
        argv = [*argv, "--omega", paths[0], "--sigma", paths[0]]
    _check(argv)
