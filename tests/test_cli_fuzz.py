"""In-process fuzz of `wtc.cli.main` over `construct`, `eval` and `sup`
command lines, `verify --scale` and `sweep --param` (with every claim's
evaluator stubbed), measure-file text read by `eval`, and CSV text read by
`plot`: every draw exits 0 (or 1, a verdict, for `verify`), or exits 2 with
exactly one `error:` line on stderr, and no exception escapes.  Counts and
depths are drawn at most 6, so no draw builds a large measure."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wtc import cli
from wtc.claims import REGISTRY, StatResult
from wtc.fileformat import HEADER, save_measure
from wtc.functionals import AP_KINDS
from wtc.measure import Interval, Measure
from wtc.report import CSV_HEADER

SMALL = st.integers(-2, 6).map(str)
NUMBERS = st.one_of(
    SMALL, st.fractions(-3, 6, max_denominator=8).map(str),
    st.sampled_from(["", "x", "1/0", "nan", "inf", "-inf", "1e400", "2000", "-2000", "0.5",
                     "3/", "--1", "1e5000", "-1e5000/3"]))
# a CSV field past the csv module's 131,072-character limit
LONG_FIELD = "a" * 140_000
P_EDGES = st.sampled_from(["0", "-3", "100000"])
FUNCTIONALS = ["avg-density", "poisson", "energy", "maximal-integral",
               *(k.replace("_", "-") for k in AP_KINDS)]


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
    (root / "long-field.csv").write_text(",".join(CSV_HEADER) + "\n" + LONG_FIELD + "\n")
    (root / "inf-param.csv").write_text(",".join(CSV_HEADER) + "\nc,inf,s,1,,NA\nc,2,s,3,,NA\n")
    for name, number in (("exp-huge.txt", "1e10000000"), ("exp-tiny.txt", "1e-10000000")):
        (root / name).write_text(f"{HEADER}\nstep 0 1 {number}\n")
    return root, [str(root / n) for n in (*measures, "missing.txt")]


# proper intervals a,b with a < b
PROPER = st.tuples(st.fractions(-2, 2, max_denominator=4), st.integers(1, 4)).map(
    lambda t: f"{t[0]},{t[0] + t[1]}")


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
    interval = draw(_mostly(PROPER, st.one_of(_pair(SMALL), _pair(NUMBERS), NUMBERS)))
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
        # 0 and -3 are below the maximal integral's domain, 100000 past the
        # exact kernel's budget
        argv += [f"--p={draw(_mostly(SMALL, st.one_of(NUMBERS, P_EDGES)))}"]
    if draw(st.booleans()):
        argv += [f"--alpha={draw(NUMBERS)}"]
    return argv


@st.composite
def claim_argv(draw):
    claim = draw(_mostly(st.sampled_from(sorted(REGISTRY)), st.just("no-such")))
    sizes = _mostly(st.one_of(SMALL, st.fractions(-3, 6, max_denominator=8).map(str)), NUMBERS)
    if draw(st.booleans()):
        argv = ["verify", claim]
        return argv + ["--scale", draw(sizes)] if draw(st.booleans()) else argv
    spec = REGISTRY.get(claim)
    name = draw(_mostly(st.just(spec.scale_name if spec else "K"), st.just("foo")))
    bounds = draw(st.lists(sizes, min_size=2, max_size=3))
    # lo..hi or lo..hi..step, and malformed ranges
    malformed = st.sampled_from(["", "1", "1..", "1..2..3..4"])
    rng = draw(_mostly(st.just("..".join(bounds)), malformed))
    return ["sweep", claim, "--param", f"{name}={rng}"]


# a line of a measure file: a well-formed record, a record of drawn tokens,
# or any text
RECORDS = st.one_of(
    st.tuples(st.fractions(-3, 3, max_denominator=8), st.integers(1, 4),
              st.fractions(0, 4, max_denominator=4)).map(
        lambda t: f"step {t[0]} {t[0] + t[1]} {t[2]}"),
    st.tuples(st.fractions(-3, 3, max_denominator=8), st.fractions(0, 4, max_denominator=4)).map(
        lambda t: f"atom {t[0]} {t[1]}"),
    st.lists(st.one_of(st.sampled_from(["atom", "step", "#", "atom#1"]), NUMBERS),
             max_size=5).map(" ".join),
    st.text(max_size=12))


@st.composite
def measure_text(draw):
    head = draw(_mostly(st.just(HEADER), st.sampled_from(["", "# wtc-measure v2", "step 0 1 1"])))
    return "\n".join([head, *draw(st.lists(RECORDS, max_size=5))]) + draw(
        st.sampled_from(["", "\n"]))


# a report CSV: the header, then rows of drawn fields (words that may need
# quoting, numbers, infinities), or any text
WORDS = st.one_of(st.sampled_from(["c", "stat", "PASS", "NA"]),
                  st.text(alphabet='ab ,"', max_size=4))
CSV_VALUES = st.one_of(NUMBERS, st.sampled_from(["", "nan", "1e300", "-1e300", "1e-320",
                                                 LONG_FIELD]))
CSV_ROWS = st.one_of(
    st.tuples(WORDS, NUMBERS, WORDS, CSV_VALUES, CSV_VALUES, WORDS).map(",".join),
    st.lists(CSV_VALUES, max_size=7).map(",".join),
    st.text(max_size=12))


@st.composite
def csv_text(draw):
    head = draw(_mostly(st.just(",".join(CSV_HEADER)), st.text(max_size=12)))
    return "\n".join([head, *draw(st.lists(CSV_ROWS, max_size=5))]) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(argv, codes=(0, 2)):
    code, out, err = _run(argv)
    assert code in codes, (argv, code, out, err)
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


def test_verify_and_sweep_fuzz(stub_evaluate):
    # one value per statistic, so that no claim runs
    for claim, spec in list(REGISTRY.items()):
        stub_evaluate(claim, lambda v, names=tuple(spec.expectations): [
            StatResult(name, 1.0) for name in names])

    @SETTINGS
    @given(claim_argv())
    def run(argv):
        _check(argv, (0, 1, 2))
    run()


def test_measure_file_fuzz(files):
    root, _ = files
    path = root / "drawn.txt"

    @SETTINGS
    @given(measure_text(), st.sampled_from(["avg-density", "poisson"]),
           _mostly(PROPER, NUMBERS), st.sampled_from([[], ["--alpha=1/2"], ["--alpha=-1"]]))
    def run(text, functional, interval, alpha):
        path.write_text(text, encoding="utf-8")
        _check(["eval", functional, "--omega", str(path), f"--interval={interval}", *alpha])
    run()


def test_plot_csv_fuzz(files):
    root, _ = files
    path = root / "drawn.csv"

    @SETTINGS
    @given(csv_text(), st.sampled_from([[], ["--log"]]))
    def run(text, log):
        path.write_text(text, encoding="utf-8")
        _check(["plot", str(path), "--out", str(root / "drawn.svg"), *log])
    run()


@pytest.mark.parametrize("argv", [
    ["construct", "pivotal-omega", "--param", "N=1e400"],       # built 10^400 atoms
    ["construct", "cp-weight", "--param", "p=14"],              # ZeroDivisionError
    ["eval", "classical", "--interval=-1,2", "--alpha=2000"],   # ZeroDivisionError
    ["plot", "long-field.csv"],                                 # csv.Error
    ["plot", "inf-param.csv"],                                  # a NaN coordinate
    ["eval", "avg-density", "exp-huge.txt"],                    # 14 s to build 10^10^7
    ["eval", "avg-density", "exp-tiny.txt"],
], ids=["pivotal-huge-N", "cp-p-14", "classical-alpha-2000", "csv-field-past-limit",
        "plot-inf-param", "exponent-past-limit", "negative-exponent-past-limit"])
def test_inputs_that_once_escaped(files, argv):
    root, paths = files
    svg = root / "out.svg"
    svg.unlink(missing_ok=True)
    if argv[0] == "construct":
        argv = [*argv, "--out", str(root / "out.txt")]
    elif argv[0] == "plot":
        argv = ["plot", str(root / argv[1]), "--out", str(svg)]
    elif argv[-1].endswith(".txt"):
        argv = [*argv[:-1], "--omega", str(root / argv[-1]), "--interval=0,1"]
    else:
        argv = [*argv, "--omega", paths[0], "--sigma", paths[0]]
    _check(argv)
    # a written chart has only finite coordinates
    assert not svg.exists() or "nan" not in svg.read_text()
