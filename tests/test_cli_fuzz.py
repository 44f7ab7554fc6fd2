"""Random argv for every CLI command, small valid and invalid values alike.

Whatever the input, the program exits 0, 1 or 2 without a traceback, and on
0 or 1 it has written a trc-1 certificate whose `pass` says which.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tamenorm import cli
from tamenorm.fingroup import CATALOG_NAMES


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def mostly_valid(valid, invalid):
    """A valid value four times as often as an invalid one."""
    return st.one_of(*[st.sampled_from(valid)] * 4, invalid)


ELL = mostly_valid(["2", "3", "5", "7"], st.sampled_from(["-3", "0", "1", "4", "9", "x"]))
DISC = mostly_valid(["-3", "-4", "-7", "-8", "-11", "-15", "-20", "-23", "-39"],
                    ints(-160, 5))
ALPHA = st.one_of(
    *[st.lists(st.tuples(ints(0, 5), ints(1, 6)).map(":".join),
               min_size=2, max_size=2)] * 4,
    st.lists(st.one_of(st.tuples(ints(-2, 5), ints(-1, 6)).map(":".join),
                       st.sampled_from(["1", "a:b", "1:2:3", ""])),
             min_size=1, max_size=4))

# (disc, ell) with ell split in Q(sqrt disc), as norm-relation and tower need
SPLIT = [("-4", "5"), ("-7", "2"), ("-23", "3"), ("-3", "7"), ("-39", "5"),
         ("-11", "3"), ("-15", "2"), ("-20", "7")]
DISC_ELL = st.one_of(*[st.sampled_from(SPLIT)] * 4, st.tuples(DISC, ELL)).map(
    lambda pair: ["--disc", pair[0], "--ell", pair[1]])


def options(required, optional, prefix=st.just([])):
    """argv for a command: the required options, each optional one drawn or
    left out, flattened to strings."""
    def flatten(chosen):
        argv = []
        for flag, value in chosen.items():
            argv.append(flag)
            if isinstance(value, list):
                argv.extend(value)
            elif value is not None:
                argv.append(value)
        return argv

    return st.tuples(prefix, st.fixed_dictionaries(required, optional=optional).map(
        flatten)).map(lambda parts: parts[0] + parts[1])


COMMANDS = {
    "coeffs": options({"--n": ints(-1, 3), "--ell": ELL}, {}),
    "verify-incl-excl": options({"--n": ints(-1, 2), "--ell": ELL},
                                {"--depth": ints(-1, 2)}),
    "mackey-test": options({}, {
        "--group": st.sampled_from([*CATALOG_NAMES, "A5"]),
        "--model": st.sampled_from(["G", "cosets", "two", "bad"]),
        "--samples": ints(-1, 6),
        "--generator-file": st.sampled_from(["", "missing.json"])}),
    "lfactor": options({"--n": mostly_valid(["1"], ints(-1, 2)), "--ell": ELL,
                        "--alpha": ALPHA},
                       {"--chi-order": ints(-1, 6)}),
    "classgroup": options({"--disc": DISC}, {"--conductor": ints(-1, 4)}),
    "tower": options({}, {"--m": ints(-1, 3)}, DISC_ELL),
    "norm-relation": options(
        {"--alpha": ALPHA},
        {"--n": ints(-1, 1), "--conductor": ints(-1, 2), "--depth": ints(-1, 2)},
        st.tuples(DISC_ELL, st.sampled_from([[], ["--perturb-b1"]])).map(
            lambda parts: parts[0] + parts[1])),
}

# a command, its options, maybe a seed, and sometimes one argv entry dropped
ARGV = st.sampled_from(sorted(COMMANDS)).flatmap(lambda command: st.tuples(
    st.just(command), COMMANDS[command],
    st.one_of(st.just([]), ints(-5, 5).map(lambda s: ["--seed", s])),
    st.sampled_from(range(-30, 10))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ARGV)
def test_cli_exit_codes_and_certificates(drawn):
    command, argv, seed, drop = drawn
    if 0 <= drop < len(argv):
        argv = argv[:drop] + argv[drop + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cert.json"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main([command, *argv, *seed, "--out", str(out)])
            except SystemExit as e:  # argparse refuses the usage
                code = e.code
        assert code in (0, 1, 2), (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if code in (0, 1):
            cert = json.loads(out.read_text())
            assert cert["schema"] == "trc-1"
            assert cert["command"] == command
            assert cert["pass"] is (code == 0)
