"""Fuzz test of the CLI contract: random flag values never crash the harness.

Every subcommand runs in-process with well-formed flag values, extreme
ones included, and at most one malformed value.  The contract: the exit
code is 0, 1 or 2, nothing prints a traceback, an exit 1 is a
configuration error rather than an exception caught by ``main``'s
catch-all, and a successful run's tables hold no ``nan``.  Sizes stay
small (dims <= 16, N <= 4, t <= 0.5) so the whole test runs in seconds;
full-model evolve runs stay within the dense propagator's dimension
(``EIG_DIMENSION_LIMIT``), because above it the Lanczos sampler's cost
grows with ||H|| t / hbar, and a stiff potential can take minutes.
"""

import contextlib
import io
import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmlimit.cli import main
from cmlimit.dynamics import EIG_DIMENSION_LIMIT

# flag -> (values that parse, including extreme ones; malformed values)
N_LIST = (("1", "2", "1,2", "3", "4", "1,2,3,4"), ("0", "-1", "1,,2", "x"))
MASS = (("1", "2", "1/2", "3/7", "1e-300", "1e300", "1e308"), ("0", "-1", "1/0", "x", "nan"))
DIM = (("2", "3", "4", "8", "12", "16"), ("1", "0", "x", "2.5"))
DISPLACEMENT = (("0", "0.5", "1", "-1", "3", "100", "1e308"), ("nan", "inf", "x"))
COMMON = {
    "hbar": (("1", "0.5", "2", "1e-300", "1e300"), ("0", "-1", "nan", "inf", "x")),
    "format": (("csv", "json"), ("xml",)),
}

# experiment -> (flags always given, flags given or left at their default)
FLAGS = {
    "scaling": ({"N": N_LIST}, {
        "mbar": MASS,
        "masses": (("1", "1,2", "1/2,3", "1e308,1e308", "1e-300,1"), ("0,1", "-1", "1,x")),
    }),
    "residuals": ({"max-degree": (("1", "2", "3"), ("0", "9", "x"))}, {
        "samples": (("1", "3"), ("0", "x")),
        "seed": (("0", "1", "-5"), ("x",)),
    }),
    "uncertainty": ({"N": N_LIST, "dim": DIM}, {
        "mbar": MASS, "x0": DISPLACEMENT, "p0": DISPLACEMENT,
    }),
    "evolve": ({"N": (("1", "2", "3", "4"), ("0", "1.5")), "dim": DIM,
                "t": (("0", "0.1", "0.2", "0.5"), ("-0.1", "nan"))}, {
        "potential": (("0", "0.5*x^2", "x^4 - 2*x^2 + 1", "0.1*x^4", "x", "x^3", "x^20"),
                      ("2x", "", "x^", "1/0*x", "x^-1", "-x^2")),  # "-x^2" reads as a flag
        "mbar": MASS, "x0": DISPLACEMENT, "p0": DISPLACEMENT,
        "dt": (("0.1", "0.05", "0.25", "0.3", "1e-300"), ("0", "-0.1", "nan", "x")),
        "model": (("full", "effective"), ("other",)),
    }),
}


@st.composite
def argvs(draw):
    """A subcommand with well-formed flag values, at most one of them malformed."""
    experiment = draw(st.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[experiment]
    chosen = dict(required)
    for flag, values in {**optional, **COMMON}.items():
        if draw(st.booleans()):
            chosen[flag] = values
    values = {flag: draw(st.sampled_from(good)) for flag, (good, _) in chosen.items()}
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(chosen)))
        values[flag] = draw(st.sampled_from(chosen[flag][1]))
    argv = [experiment]
    for flag, value in values.items():
        argv += [f"--{flag}", value]
    return argv


def _full_model_dimension(argv):
    """Composite dimension of a full-model evolve run, or 0 for any other run."""
    values = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] != "evolve" or values.get("--model") != "full":
        return 0
    try:
        return int(values["--dim"]) ** int(values["--N"])
    except ValueError:
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

