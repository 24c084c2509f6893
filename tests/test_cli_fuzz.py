"""The CLI contract under fuzzing: any argv or config-file text ends in exit
0 with finite JSON, or in exit 2 with one ``error:`` line, never in a
traceback. Sizes stay small (nodes <= 50, rounds <= 5, at most 3
protocols), so each case runs in milliseconds."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsnsim.cli import _NUMBER_KEYS, main
from wsnsim.engine import PROTOCOLS

# any float, the awkward ones included, or a plain small number
numbers = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-160, 1e153, 1e200, 1e300, 1e305]),
    st.floats(-200, 200),
)
# ints for the keys that size the run stay small; others may be anything
SMALL_INTS = {"n_nodes": (-1, 50), "max_rounds": (-1, 5), "thin": (-1, 3), "k": (-1, 50),
              "fcm_max_iter": (-1, 30)}
FLAGS = {"n_nodes": "nodes", "max_rounds": "rounds"}  # the rest: the key with dashes


def value(key):
    if key in SMALL_INTS:
        return st.integers(*SMALL_INTS[key])
    if _NUMBER_KEYS[key] is int:
        return st.integers(-10, 10**6)
    return numbers


# the keys a run reads, as flags where the CLI has one and config lines otherwise
FLAG_KEYS = sorted(k for k in _NUMBER_KEYS if k not in ("e_elec", "e_amp", "e_da",
                                                        "data_bits", "header_bits"))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["run", "compare", "sweep"]))
    flags = [f"--protocol={p}" for p in draw(
        st.lists(st.sampled_from(sorted(PROTOCOLS)), max_size=3, unique=True))]
    flags += [f"--seed={s}" for s in draw(st.lists(st.integers(-1, 3), max_size=2))]
    for key in draw(st.lists(st.sampled_from(FLAG_KEYS), max_size=5, unique=True)):
        flags.append(f"--{FLAGS.get(key, key.replace('_', '-'))}={draw(value(key))}")
    if command == "sweep" and draw(st.booleans()):
        flags.append("--grid=" + ",".join(map(str, draw(
            st.lists(st.integers(-1, 50), min_size=1, max_size=3)))))
    lines = [f"{key} = {draw(value(key))}" for key in draw(
        st.lists(st.sampled_from(sorted(_NUMBER_KEYS)), max_size=4, unique=True))]
    lines += draw(st.lists(st.sampled_from(["# comment", "", "x", "formats = json",
                                            "formats = csv, xml", "seeds = 1, 2"]),
                           max_size=2))
    return command, flags, "\n".join(lines) + "\n"


# what a sweep would silently ignore: it forms k-means and fuzzy clusters only,
# simulates no rounds and writes one CSV
IGNORED_BY_SWEEP = ("--rounds", "--thin", "--format", "max_rounds", "thin", "formats",
                    *(f"--protocol={p}" for p in PROTOCOLS if p not in ("kmeans", "fuzzy")))


def refuse(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def run(command, flags, config):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "exp.cfg").write_text(config)
        out, err = io.StringIO(), io.StringIO()
        # small defaults that the drawn flags may override; the file's
        # n_nodes and max_rounds are parsed but lose to them. A sweep takes no
        # round count
        rounds = [] if command == "sweep" else ["--rounds=3"]
        argv = [command, f"--config={tmp / 'exp.cfg'}", *rounds, "--nodes=20",
                f"--out={tmp / 'o'}", *flags]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
        documents = [p.read_text() for p in (tmp / "o").glob("*.json")]
    return code, err.getvalue(), documents


@settings(max_examples=120, deadline=None, derandomize=True)
@given(invocations())
@example(("run", ["--protocol=leach"], "e_amp = 1e305\n"))
@example(("run", ["--protocol=leach", "--bs-x=1e300"], ""))
@example(("run", ["--protocol=kmeans", "--width=1e200", "--height=1e200"], ""))
@example(("run", ["--protocol=kmeans", "--width=1e200", "--height=1e200"], "e_amp = 0\n"))
@example(("run", ["--protocol=leach", "--leach-p=1e-310"], ""))
@example(("run", ["--protocol=heed", "--heed-p-min=5e-324", "--heed-c-prob=1e-300"], ""))
@example(("run", ["--protocol=heed", "--heed-radius=1e200"], ""))
@example(("sweep", ["--grid=3", "--protocol=leach", "--nodes=10", "--seed=1", "--rounds=5",
                    "--thin=3"], "formats = json\n"))
@example(("compare", ["--protocol=leach", "--protocol=leach"], ""))
@example(("run", ["--protocol=eecs", "--seed=2", "--seed=2"], ""))
@example(("run", [], "protocols = heed, heed\n"))
def test_exit_code_error_line_and_finite_json(invocation):
    command, flags, config = invocation
    code, err, documents = run(command, flags, config)
    assert code in (0, 2)
    if code == 0:  # a repeated protocol or seed is refused
        for prefix in ("--protocol=", "--seed="):
            given = [f for f in flags if f.startswith(prefix)]
            assert len(set(given)) == len(given)
    if command == "sweep" and code == 0:
        assert not [f for f in (*flags, *config.splitlines()) if f.startswith(IGNORED_BY_SWEEP)]
    assert "Traceback" not in err
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1
    for text in documents:
        json.loads(text, parse_constant=refuse)
