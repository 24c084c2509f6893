"""The CLI contract under fuzzing: any argv or config-file text ends in exit
0 with finite JSON, or in exit 2 with one ``error:`` line, never in a
traceback, and never in exit 0 after a key the command does not read.
Sizes stay small (nodes <= 50, rounds <= 5, at most 3 protocols), so each
case runs in milliseconds."""

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


RADIO_KEYS = ("e_elec", "e_amp", "e_da", "data_bits", "header_bits")  # config file only

# Who reads what, written out here from the README's reader table. A command
# never reads the keys of NEVER_READ; a protocol key is read only where one of
# its OWNERS runs (a sweep runs kmeans and fuzzy), and thin only where CSV is
# written.
NEVER_READ = {
    "run": {"grid"},
    "compare": {"grid"},
    "sweep": {"max_rounds", "thin", "formats", "initial_energy", *RADIO_KEYS, "k", "leach_p",
              "heed_c_prob", "heed_p_min", "heed_radius", "eecs_p", "eecs_w", "ch_separation"},
}
OWNERS = {
    "leach_p": {"leach"}, "heed_c_prob": {"heed"}, "heed_p_min": {"heed"},
    "heed_radius": {"heed"}, "eecs_p": {"eecs"}, "eecs_w": {"eecs"},
    "k": {"kmeans", "fuzzy"}, "fcm_m": {"fuzzy"}, "fcm_tol": {"fuzzy"},
    "fcm_max_iter": {"kmeans", "fuzzy"}, "ch_separation": {"leach", "heed", "eecs"},
}


def unread(command, keys, protocols, writes_csv=True):
    """The keys of ``keys`` that ``command`` would not read."""
    runs = {"kmeans", "fuzzy"} if command == "sweep" else set(protocols)
    return sorted(key for key in keys if key in NEVER_READ[command]
                  or key in OWNERS and not OWNERS[key] & runs
                  or key == "thin" and not writes_csv)


def given_keys(flags, config):
    """The keys an invocation sets, by flag or by config-file line."""
    names = [f[2:].split("=", 1)[0] for f in flags]
    names = [{"nodes": "n_nodes", "rounds": "max_rounds", "format": "formats"}.get(n, n)
             for n in names if n not in ("protocol", "seed")]
    lines = [line.split("=", 1)[0] for line in config.splitlines() if "=" in line]
    return {name.strip().replace("-", "_") for name in names + lines}


def writes_csv(flags, config):
    """Whether CSV is written: a --format flag wins over a formats line."""
    formats = [line for line in config.splitlines() if line.startswith("formats")]
    formats += [f.split("=", 1)[1] for f in flags if f.startswith("--format=")]
    return not formats or "csv" in formats[-1] or formats[-1] == "both"


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["run", "compare", "sweep"]))
    protocols = draw(st.lists(st.sampled_from(sorted(PROTOCOLS)), max_size=3, unique=True))
    flags = [f"--protocol={p}" for p in protocols]
    flags += [f"--seed={s}" for s in draw(st.lists(st.integers(-1, 3), max_size=2))]
    # mostly keys the command reads, so that exit 0 stays common; a key it
    # does not read one time in four
    read = [key for key in sorted(_NUMBER_KEYS) if not unread(command, [key], protocols)]
    keys = draw(st.sampled_from([read, read, read, sorted(_NUMBER_KEYS)]))
    for key in draw(st.lists(st.sampled_from([k for k in keys if k not in RADIO_KEYS]),
                             max_size=5, unique=True)):
        flags.append(f"--{FLAGS.get(key, key.replace('_', '-'))}={draw(value(key))}")
    if command == "sweep" and draw(st.booleans()):
        flags.append("--grid=" + ",".join(map(str, draw(
            st.lists(st.integers(-1, 50), min_size=1, max_size=3)))))
    lines = [f"{key} = {draw(value(key))}" for key in draw(
        st.lists(st.sampled_from(keys), max_size=4, unique=True))]
    lines += draw(st.lists(st.sampled_from(["# comment", "", "x", "formats = json",
                                            "formats = csv, xml", "seeds = 1, 2"]),
                           max_size=2))
    return command, flags, "\n".join(lines) + "\n"


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
            code = main(argv)
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
@example(("run", ["--protocol=leach", "--nodes=10", "--rounds=2"], "grid = 3\n"))
@example(("sweep", ["--grid=3", "--k=5"], ""))
@example(("run", ["--protocol=leach", "--k=4"], ""))
@example(("run", ["--protocol=leach", "--format=json", "--thin=3"], ""))
@example(("run", ["--protocol=leach", "--nodes=x"], ""))
@example(("run", ["--protocol=nope", "--format=xml"], ""))
@example(("compare", ["--protocol=leach", "--no-such-flag=1"], ""))
def test_exit_code_error_line_and_finite_json(invocation):
    command, flags, config = invocation
    code, err, documents = run(command, flags, config)
    assert code in (0, 2)
    if code == 0:  # a repeated protocol or seed is refused
        for prefix in ("--protocol=", "--seed="):
            given = [f for f in flags if f.startswith(prefix)]
            assert len(set(given)) == len(given)
    if code == 0:
        protocols = [f.split("=", 1)[1] for f in flags if f.startswith("--protocol=")]
        assert not unread(command, given_keys(flags, config), protocols,
                          writes_csv(flags, config))
        if command == "sweep":  # it compares kmeans with fuzzy: both named or neither
            assert set(protocols) in (set(), {"kmeans", "fuzzy"})
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    for text in documents:
        json.loads(text, parse_constant=refuse)
