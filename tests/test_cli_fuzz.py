"""Fuzz test of the CLI contract: random flag values never crash the harness.

Every subcommand runs in-process with well-formed flag values, extreme
ones included, and at most one malformed or missing value.  The contract:
the exit code is 0, 1 or 2, nothing prints a traceback, an exit 1 is a
configuration error rather than an exception caught by ``main``'s
catch-all, and a successful run's tables hold no ``nan``.  Sizes stay
small (dims <= 16, N <= 4, t <= 0.5) so the whole test runs in seconds,
except ``uncertainty``'s N: its row costs one mode at any N, so it draws N up
to a million and one N past the floating-point range;
full-model evolve runs stay within the dense propagator's dimension
(``EIG_DIMENSION_LIMIT``), because above it the Lanczos sampler's cost
grows with ||H|| t / hbar, and a stiff potential can take minutes.

The same flag values, in either flag form, in any order and repeated, check
that the CLI reads its flags as the ``argparse`` parser it replaced did
(``oracles.reference_config``).
"""

import contextlib
import io
import math
import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmlimit.cli import MAX_RESIDUAL_SAMPLES, ConfigError, build_config, main
from cmlimit.dynamics import EIG_DIMENSION_LIMIT
from oracles import reference_config

# flag -> (values that parse, including extreme ones; malformed values)
N_LIST = (("1", "2", "1,2", "3", "4", "1,2,3,4"), ("0", "-1", "1,,2", "x"))
UNCERTAINTY_N = (N_LIST[0] + ("7", "3600", "1000000", "1,7,64", "1" + "0" * 310), N_LIST[1])
MASS = (("1", "2", "1/2", "3/7", "1e-300", "1e300", "1e308"), ("0", "-1", "1/0", "x", "nan"))
DIM = (("2", "3", "4", "8", "12", "16"), ("1", "0", "x", "2.5"))
DISPLACEMENT = (("0", "0.5", "1", "-1", "-0.15", "3", "100", "1e308"), ("nan", "inf", "x"))
COMMON = {
    "hbar": (("1", "0.5", "2", "1e-300", "1e300"), ("0", "-1", "nan", "inf", "x")),
    "format": (("csv", "json"), ("xml",)),
}

# experiment -> (flags always given, flags given or left at their default)
FLAGS = {
    "scaling": ({}, {  # --masses refuses --N and --mbar, so none of the three is always given
        "N": N_LIST, "mbar": MASS,
        "masses": (("1", "1,2", "1/2,3", "1e308,1e308", "1e-300,1"), ("0,1", "-1", "1,x")),
    }),
    "residuals": ({"max-degree": (("1", "2", "3"), ("0", "9", "x"))}, {
        "samples": (("1", "3"), ("0", "x", str(MAX_RESIDUAL_SAMPLES + 1))),
        "seed": (("0", "1", "-5"), ("x",)),
    }),
    "uncertainty": ({"N": UNCERTAINTY_N, "dim": DIM}, {
        "mbar": MASS, "x0": DISPLACEMENT, "p0": DISPLACEMENT,
    }),
    "evolve": ({"N": (("1", "2", "3", "4"), ("0", "1.5")), "dim": DIM,
                "t": (("0", "0.1", "0.2", "0.5"), ("-0.1", "nan"))}, {
        "potential": (("0", "0.5*x^2", "x^4 - 2*x^2 + 1", "0.1*x^4", "x", "x^3", "x^20", "-x^2"),
                      ("2x", "", "x^", "1/0*x", "x^-1")),
        "mbar": MASS, "x0": DISPLACEMENT, "p0": DISPLACEMENT,
        "dt": (("0.1", "0.05", "0.25", "0.3", "1e-300"), ("0", "-0.1", "nan", "x")),
        "model": (("full", "effective"), ("other",)),
    }),
}


@st.composite
def argvs(draw):
    """A subcommand with well-formed flag values, at most one of them malformed or
    missing (None: that flag ends the command line with no value)."""
    experiment = draw(st.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[experiment]
    chosen = dict(required)
    for flag, values in {**optional, **COMMON}.items():
        if draw(st.booleans()):
            chosen[flag] = values
    values = {flag: draw(st.sampled_from(good)) for flag, (good, _) in chosen.items()}
    if chosen and draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(chosen)))
        values[flag] = draw(st.sampled_from(chosen[flag][1] + (None,)))
    argv = [experiment]
    for flag, value in sorted(values.items(), key=lambda item: item[1] is None):
        argv += [f"--{flag}"] + ([] if value is None else [value])
    return argv


def _full_model_dimension(argv):
    """Occupation states of a full-model evolve run, C(N + dim - 1, N), or 0 for any
    other run."""
    values = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] != "evolve" or values.get("--model") != "full":
        return 0
    try:
        n, dim = int(values["--N"]), int(values["--dim"])
        return math.comb(n + dim - 1, n)
    except (KeyError, ValueError):  # a flag with no value or a malformed one
        return 0


@settings(derandomize=True, deadline=None, max_examples=250)
@given(argvs())
def test_cli_exit_codes_and_tables(argv):
    assume(_full_model_dimension(argv) <= EIG_DIMENSION_LIMIT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        assert "nan" not in out.getvalue(), argv
        assert out.getvalue() and not err.getvalue(), argv
    if code == 1:
        # a configuration error, not an exception that reached main's catch-all
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv
        assert not re.match(r"error: \w+(Error|Exception): ", err.getvalue()), argv



# argparse's test of a token that starts with '-': a value when it is a negative
# number or holds a space, else a flag (which then leaves the flag before it empty)
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _argparse_reads_as_a_flag(token):
    return (token.startswith("-") and len(token) > 1 and " " not in token
            and not _NEGATIVE_NUMBER.match(token))


@st.composite
def flag_argvs(draw):
    """A subcommand and flags in any order, each ``--name VALUE`` or ``--name=VALUE``,
    any of them repeated, with well-formed and malformed values alike."""
    experiment = draw(st.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[experiment]
    flags = {**required, **optional, **COMMON}
    argv = [experiment]
    for _ in range(draw(st.integers(0, 8))):
        flag = draw(st.sampled_from(sorted(flags)))
        value = draw(st.sampled_from(flags[flag][0] + flags[flag][1]))
        argv += [f"--{flag}={value}"] if draw(st.booleans()) else [f"--{flag}", value]
    return argv


def _values_or_error(build, argv):
    try:
        return build(argv).values
    except ConfigError as exc:
        return f"error: {exc}"


@settings(derandomize=True, deadline=None, max_examples=500)
@given(flag_argvs())
def test_flags_read_from_the_table_as_argparse_read_them(argv):
    # the two documented differences are left out: a value argparse took for a flag
    # (it starts with '-' and is no number, as in --potential -x^2), and an
    # abbreviated flag, which is never drawn
    assume(not any(_argparse_reads_as_a_flag(token) for token in argv
                   if not token.startswith("--")))
    assert _values_or_error(build_config, argv) == _values_or_error(reference_config, argv)
