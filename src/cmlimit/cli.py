"""Command-line harness: named experiments over the algebra and the simulator.

Subcommands::

    scaling       exact commutator magnitude and uncertainty bound vs N
    residuals     eps-valuations of the factorization/Poisson residuals
    uncertainty   uncertainty products of N equal coherent modes vs the bound
    evolve        quantum trajectory next to its classical twin

Each experiment's flags are read straight from the ``_FIELDS`` table, as
``--name VALUE`` or ``--name=VALUE``: the token after ``--name`` is always its
value, so ``--potential -x^4`` reads as a potential, and a flag is never
abbreviated.  ``-h`` or ``--help`` prints the usage, built from the same
table.  Outputs are deterministic tables (CSV by default, JSON with --format
json).  Exit codes: 0 success (and help), 1 configuration or parse error, 2
numeric-gate failure (truncation or norm drift), with partial output and a
FAILED marker.  Flags override config-file values, which override built-in
defaults.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .ccr_algebra import (
    GaussianRational,
    ParticleSystem,
    cm_algebra,
    cm_observables,
    commutator,
    eps_valuation,
    residual_monomial_identity,
    residual_power_identity,
    residual_poisson,
)
from .dynamics import (
    HamiltonianSpec,
    NormDriftError,
    PolynomialPotential,
    compare_trajectories,
    effective_cm_system,
    evolve_classical,
    evolve_quantum,
)
from .hilbert_rep import (
    TRUNCATION_GATE,
    DimensionCapError,
    ExcessiveTruncationError,
    ModeSpec,
    cm_expectation_record,
    coherent_product,
    coherent_state,
)

MAX_RESIDUAL_DEGREE = 8
MAX_RESIDUAL_SAMPLES = 10**5  # each row is held until the table prints; 10^5 rows take ~9 s
MAX_SCALING_PARTICLES = 10**5  # over a command's systems; the cost is linear, 10^5 take ~5 s
HARMONIC_SANITY_TOLERANCE = 1e-6
TRUNC_WEIGHT_DECIMALS = 15  # printed resolution of the weight, 1e-9 of the gate


class ConfigError(ValueError):
    """Invalid flag, config-file entry or parameter combination."""


class PotentialSyntaxError(ValueError):
    """Malformed potential expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Potential expressions
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"\d+\.\d*|\.\d+|\d+")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        if ch in "x^*/+-":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise PotentialSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


def parse_potential(text: str) -> PolynomialPotential:
    """Parse a sum of terms ``[coeff] [* x[^k]]`` into a PolynomialPotential.

    Coefficients are decimals or ``a/b`` rationals (kept exact); exponents
    are nonnegative integers.  Raises PotentialSyntaxError with the position
    of the offending token.
    """
    tokens = _tokenize(text)
    pos = 0
    coeffs: dict[int, Fraction] = {}

    def current():
        return tokens[pos]

    def fail(message, tok=None):
        tok = tok if tok is not None else current()
        raise PotentialSyntaxError(message, tok[2])

    def parse_int(what):
        kind, value, _ = current()
        if kind != "num" or "." in value:
            fail(f"expected an integer {what}")
        advance()
        return int(value)

    def advance():
        nonlocal pos
        pos += 1

    def parse_coefficient() -> Fraction:
        kind, value, _ = current()
        advance()
        if current()[0] == "/":
            if "." in value:
                fail("rational coefficient needs an integer numerator", tokens[pos])
            advance()
            denom_tok = current()
            denom = parse_int("denominator")
            if denom == 0:
                fail("zero denominator", denom_tok)
            return Fraction(int(value), denom)
        return Fraction(value)

    def parse_power() -> int:
        advance()  # consume 'x'
        if current()[0] != "^":
            return 1
        advance()
        if current()[0] == "-":
            fail("negative exponent is not allowed")
        return parse_int("exponent")

    first = True
    while True:
        kind = current()[0]
        if kind == "end":
            if first:
                fail("empty potential expression")
            break
        sign = 1
        if kind in "+-":
            sign = 1 if kind == "+" else -1
            advance()
        elif not first:
            fail("expected '+' or '-' between terms")
        kind = current()[0]
        if kind == "num":
            coeff = parse_coefficient()
            if current()[0] == "*":
                advance()
                if current()[0] != "x":
                    fail("expected 'x' after '*'")
                degree = parse_power()
            elif current()[0] == "x":
                fail("expected '*' between coefficient and x")
            else:
                degree = 0
        elif kind == "x":
            coeff = Fraction(1)
            degree = parse_power()
        else:
            fail("expected a coefficient or 'x'")
        coeffs[degree] = coeffs.get(degree, Fraction(0)) + sign * coeff
        first = False

    return PolynomialPotential.from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _parse_int_list(text: str):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ConfigError("N values must be positive integers")
    return values


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"expected a rational number, got {text!r}") from exc


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _positive(parse):
    """``parse`` that also rejects values <= 0 (masses and hbar)."""
    def parse_positive(text: str):
        value = parse(text)
        if value <= 0:
            raise ConfigError(f"expected a positive number, got {text!r}")
        return value

    return parse_positive


def _parse_positive_rational(text: str) -> Fraction:
    """A positive rational whose float is a normal double (masses enter float code)."""
    value = _positive(_parse_rational)(text)
    try:
        normal = float(value) >= sys.float_info.min
    except OverflowError:
        normal = False
    if not normal:
        raise ConfigError(f"{text!r} is out of the floating-point range")
    return value


def _parse_masses(text: str):
    return tuple(_parse_positive_rational(part) for part in text.split(","))


def _parse_pos_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc
    if value < 1:
        raise ConfigError("expected a positive integer")
    return value


def _parse_dim(text: str) -> int:
    value = _parse_pos_int(text)
    if value < 2:
        raise ConfigError(f"expected an integer of at least 2, got {text!r}")
    return value


def _parse_choice(options):
    def parse(text: str) -> str:
        if text not in options:
            raise ConfigError(f"expected one of {options}, got {text!r}")
        return text

    return parse


@dataclass(frozen=True)
class _Field:
    name: str
    parse: object
    default: object
    help: str


_COMMON_FIELDS = (
    _Field("format", _parse_choice(("csv", "json")), "csv", "output format"),
    _Field("out", str, None, "output path (default: standard output)"),
    _Field("hbar", _positive(_parse_float), 1.0, "numeric value of hbar"),
)

_FIELDS = {
    "scaling": _COMMON_FIELDS + (
        _Field("N", _parse_int_list, (1, 2, 3, 4, 8, 16, 32, 64), "comma-separated particle counts"),
        _Field("mbar", _parse_positive_rational, Fraction(1), "mean particle mass (rational)"),
        _Field("masses", _parse_masses, None,
               "explicit comma-separated masses (one system; not with --N or --mbar)"),
    ),
    "residuals": _COMMON_FIELDS + (
        _Field("max-degree", _parse_pos_int, 4, f"degree grid bound (at most {MAX_RESIDUAL_DEGREE})"),
        _Field("samples", _parse_pos_int, 10,
               f"number of random Poisson-residual pairs (at most {MAX_RESIDUAL_SAMPLES})"),
        _Field("seed", int, 0, "seed for the randomized property cases"),
    ),
    "uncertainty": _COMMON_FIELDS + (
        _Field("N", _parse_int_list, (1, 2, 3, 4, 5), "comma-separated particle counts"),
        _Field("mbar", _parse_positive_rational, Fraction(1), "per-particle mass (equal masses)"),
        _Field("dim", _parse_dim, 8, "basis dimension per mode"),
        _Field("x0", _parse_float, 0.0, "coherent displacement in position, per mode"),
        _Field("p0", _parse_float, 0.0, "coherent displacement in momentum, per mode"),
    ),
    "evolve": _COMMON_FIELDS + (
        _Field("potential", str, "0", "potential U(x), e.g. '0.5*x^2' or 'x^4 - 2*x^2 + 1'"),
        _Field("N", _parse_pos_int, 1, "particle count"),
        _Field("mbar", _parse_positive_rational, Fraction(1), "mean particle mass"),
        _Field("dim", _parse_dim, 64, "basis dimension (per mode for --model full)"),
        _Field("x0", _parse_float, 1.0, "initial CM position"),
        _Field("p0", _parse_float, 0.0, "initial total momentum"),
        _Field("t", _parse_float, 1.0, "final time (a whole number of dt steps)"),
        _Field("dt", _parse_float, 0.01, "time step and sample spacing"),
        _Field("model", _parse_choice(("full", "effective")), "effective",
               "full tensor product or effective single CM mode"),
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters of one experiment run."""

    experiment: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]


class _Usage(Exception):
    """``-h`` or ``--help``: the usage text to print, with exit code 0."""


def _usage(experiment=None) -> str:
    """The experiments, or one experiment's flags, read from ``_FIELDS``."""
    if experiment is None:
        return (f"usage: cmlimit {{{','.join(_FIELDS)}}} [--FLAG VALUE | --FLAG=VALUE ...]\n"
                "exit codes: 0 success, 1 configuration or parse error, 2 numeric-gate failure\n")
    return "".join([f"usage: cmlimit {experiment} [--FLAG VALUE | --FLAG=VALUE ...]\n",
                    "  --config VALUE  config file with 'key = value' lines\n",
                    *(f"  --{f.name} VALUE  {f.help} (default: {f.default})\n"
                      for f in _FIELDS[experiment]),
                    "explicit flags override config-file values, which override defaults\n"])


def _load_config_file(path: str) -> dict:
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = stripped.partition("=")
                entries[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return entries


def build_config(argv=None) -> ExperimentConfig:
    """EXPERIMENT, then ``--name VALUE`` or ``--name=VALUE`` for ``--config`` and the
    experiment's ``_FIELDS``: the token after ``--name`` is its value, whatever it looks
    like, and a repeated flag's last value wins.  ``-h`` or ``--help`` raises _Usage."""
    argv = sys.argv[1:] if argv is None else list(argv)
    experiment = argv[0] if argv else None
    if experiment in ("-h", "--help"):
        raise _Usage(_usage())
    if experiment not in _FIELDS:
        raise ConfigError(f"expected an experiment, one of {', '.join(_FIELDS)}; "
                          f"got {'nothing' if experiment is None else repr(experiment)}")
    fields = _FIELDS[experiment]
    known = {f.name for f in fields}
    flags, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            raise _Usage(_usage(experiment))
        name, eq, value = token.partition("=")
        if not (name.startswith("--") and name[2:] in known | {"config"}):
            raise ConfigError(f"unrecognized argument {token!r} for experiment {experiment!r}")
        flags[name[2:]] = value if eq else next(tokens, None)
    if None in flags.values():  # only the last token can lack its value
        raise ConfigError(f"{argv[-1]}: expected a value")
    config_path = flags.pop("config", None)
    file_entries = _load_config_file(config_path) if config_path else {}
    for key in file_entries:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r} for experiment {experiment!r}")
    values, given = {}, set()
    for field in fields:
        raw = flags.get(field.name)
        if raw is None:
            raw = file_entries.get(field.name)
        if raw is None:
            values[field.name] = field.default
        else:
            given.add(field.name)
            try:
                values[field.name] = field.parse(raw)
            except ConfigError as exc:
                raise ConfigError(f"--{field.name}: {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"invalid value for --{field.name}: {raw!r}") from exc
    clashes = [f"--{name}" for name in ("N", "mbar") if name in given]
    if "masses" in given and clashes:  # scaling's one system of explicit masses
        raise ConfigError(f"--masses, {', '.join(clashes)}: --masses sets the particle count "
                          "and the masses, so --N and --mbar do not apply")
    return ExperimentConfig(experiment=experiment, values=values)


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple
    rows: tuple  # rows of already-formatted strings


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    tables: tuple
    exit_code: int = 0
    failed: str | None = None


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.12g}"


def _float_rows(*columns) -> tuple:
    """Rows of the ``_fmt`` text of float columns (lists), each column one ``%`` template."""
    return tuple(zip(*(("%.12g\n" * len(column) % tuple(column)).split() for column in columns)))


def run_scaling(config: ExperimentConfig) -> ExperimentResult:
    masses = config["masses"]
    particles = sum(config["N"]) if masses is None else len(masses)
    if particles > MAX_SCALING_PARTICLES:
        raise ConfigError(f"{'--N' if masses is None else '--masses'}: expected at most "
                          f"{MAX_SCALING_PARTICLES} particles in total, got {particles}")
    try:
        if masses is not None:
            systems = [ParticleSystem(masses=masses)]
        else:
            systems = [ParticleSystem.uniform(n, config["mbar"]) for n in config["N"]]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    flag = "--masses" if masses is not None else "--mbar"
    for system in systems:
        try:
            float(system.total_mass)
        except OverflowError as exc:  # each mass fits a double, their sum need not
            raise ConfigError(
                f"{flag}: the total mass of {system.n} particles is out of the floating-point range"
            ) from exc
    hbar = config["hbar"]
    rows = []
    for system in systems:
        x_cm, v_cm, _ = cm_observables(system)
        comm = commutator(x_cm, v_cm)
        (mono, coeff), = comm.terms.items()  # exactly i*hbar/M times the identity
        assert mono.hbar_exp == 1 and not mono.pairs and coeff.re == 0
        magnitude = hbar * float(coeff.im)
        bound = hbar / 2.0 / float(system.total_mass)  # 2.0 * M may overflow
        if not all(0 < v < math.inf for v in (magnitude, bound)):  # a subnormal still prints
            raise ConfigError(f"{flag}, --hbar: the commutator magnitude or uncertainty bound "
                              f"of {system.n} particles is out of the floating-point range")
        # a subnormal may hold fewer than 12 digits: print its repr when that has at most 12
        rows.append((_fmt(system.n), *(
            repr(v) if v < sys.float_info.min and len(repr(v).split("e")[0].replace(".", "")) <= 12
            else _fmt(v)
            for v in (float(system.mean_mass), float(system.eps), magnitude, bound))))
    table = Table("scaling", ("N", "mbar", "eps", "comm_magnitude", "uncertainty_bound"),
                  tuple(rows))
    return ExperimentResult("scaling", (table,))


def _leading_coeff_norm(poly, hbar: float) -> float:
    if poly.is_zero:
        return 0.0
    lead = eps_valuation(poly)
    return math.fsum(  # correctly rounded, so independent of the term order
        coeff.magnitude() * hbar**mono.hbar_exp
        for mono, coeff in poly.terms.items()
        if mono.eps_exp == lead
    )


def _random_xv_polynomial(rng: random.Random, algebra, max_degree: int = 3):
    poly = algebra.zero()
    for _ in range(rng.randint(1, 4)):
        x_exp = rng.randint(0, max_degree)
        v_exp = rng.randint(0, max_degree - x_exp)
        coeff = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        poly = poly + algebra.ordered_monomial(x_exp, v_exp) * coeff
    return poly


def run_residuals(config: ExperimentConfig) -> ExperimentResult:
    max_degree = config["max-degree"]
    if max_degree > MAX_RESIDUAL_DEGREE:
        raise ConfigError(f"--max-degree: expected at most {MAX_RESIDUAL_DEGREE}, got {max_degree}")
    if config["samples"] > MAX_RESIDUAL_SAMPLES:
        raise ConfigError(
            f"--samples: expected at most {MAX_RESIDUAL_SAMPLES}, got {config['samples']}")
    hbar = config["hbar"]
    rows = []

    def add_row(case, params, residual):
        valuation = eps_valuation(residual)
        try:
            norm = _leading_coeff_norm(residual, hbar)
        except OverflowError as exc:  # hbar**k of an accepted hbar need not fit a double
            raise ConfigError(
                f"--hbar: the {case} residual {params} is out of the floating-point range"
            ) from exc
        rows.append((
            case, params,
            "inf" if valuation == math.inf else str(valuation),
            _fmt(norm),
        ))

    for n in range(1, max_degree + 1):
        for m in range(1, max_degree + 1):
            add_row("power", f"n={n};m={m}", residual_power_identity(n, m))
    mono_bound = min(max_degree, 3)
    for a in range(mono_bound + 1):
        for b in range(mono_bound + 1):
            for c in range(mono_bound + 1):
                for d in range(mono_bound + 1):
                    add_row("monomial", f"a={a};b={b};c={c};d={d}",
                            residual_monomial_identity(a, b, c, d))
    rng = random.Random(config["seed"])
    algebra = cm_algebra()
    for index in range(config["samples"]):
        f = _random_xv_polynomial(rng, algebra)
        g = _random_xv_polynomial(rng, algebra)
        add_row("poisson", f"seed={config['seed']};index={index}", residual_poisson(f, g))

    table = Table("residuals", ("case", "params", "eps_valuation", "leading_coeff_norm"),
                  tuple(rows))
    return ExperimentResult("residuals", (table,))


def _mode(mbar: float, dim: int, hbar: float) -> ModeSpec:
    """One mode of mass mbar; a scale out of the float range names --mbar, --hbar."""
    try:
        return ModeSpec(mass=mbar, dim=dim, hbar=hbar)
    except ValueError as exc:
        raise ConfigError(f"--mbar, --hbar: {exc}") from exc


def _total_mass(n: int, mbar: float) -> float:
    """N * mbar; an N past the float range names --N, --mbar."""
    try:
        return n * mbar
    except OverflowError as exc:  # the int N is converted to a float first
        raise ConfigError("--N, --mbar: the total mass N * mbar is out of the "
                          "floating-point range") from exc


def run_uncertainty(config: ExperimentConfig) -> ExperimentResult:
    """Rows of phi^(x)N, phi one coherent mode at (x0, p0 / N), from phi's record in the
    same basis: dx and dv over sqrt(N), the commutator over N, the same top-level weight."""
    hbar = config["hbar"]
    mbar = float(config["mbar"])
    dim = config["dim"]
    mode = _mode(mbar, dim, hbar)
    columns = ("N", "d", "product", "bound", "ratio", "comm_expectation_im",
               "trunc_weight", "flag")
    rows = []
    exit_code = 0
    for n in config["N"]:
        bound = hbar / 2.0 / _total_mass(n, mbar)  # 2.0 * n * mbar may overflow
        if not sys.float_info.min <= bound < math.inf:  # ModeSpec's rule for a scale
            raise ConfigError(f"--N, --mbar, --hbar: the uncertainty bound at N = {n} is out of range")
        try:
            rec = cm_expectation_record(coherent_state(mode, config["x0"], config["p0"] / n),
                                        mode)
        except DimensionCapError as exc:  # the one mode holds all --dim levels, whatever --N is
            raise ConfigError(f"--dim: {exc}") from exc
        except ExcessiveTruncationError:
            rec = None
        if rec is None or rec.truncation_weight > TRUNCATION_GATE:
            exit_code = 2
            rows.append((str(n), str(dim), "nan", _fmt(bound), "nan", "nan", "nan",
                         "truncation"))
            continue
        root_n = math.sqrt(n)
        product = (rec.dx / root_n) * (rec.dv / root_n)
        rows.append(tuple(_fmt(v) for v in (
            n, dim, product, bound, product / bound, rec.commutator_expectation.imag / n,
            rec.truncation_weight, "ok",
        )))
    table = Table("uncertainty", columns, tuple(rows))
    return ExperimentResult("uncertainty", (table,), exit_code=exit_code)


def _trajectory_table(traj) -> Table:
    """One row per sample.  ``trunc_weight`` is rounded to TRUNC_WEIGHT_DECIMALS
    decimal places: below that it is propagator round-off, whose digits change
    with the BLAS thread count and the eigensolver.  The gate in
    ``evolve_quantum`` compares the raw weight."""
    columns = (traj.times, traj.x_cm, traj.v_cm, traj.dx, traj.dv, traj.energy, traj.norm)
    weights = [round(w, TRUNC_WEIGHT_DECIMALS) for w in traj.trunc_weight.tolist()]
    return Table("quantum", ("t", "x_cm", "v_cm", "dx", "dv", "energy", "norm", "trunc_weight"),
                 _float_rows(*(c.tolist() for c in columns), weights))


def run_evolve(config: ExperimentConfig) -> ExperimentResult:
    try:
        potential = parse_potential(config["potential"])
    except PotentialSyntaxError as exc:
        raise ConfigError(f"--potential: invalid potential: {exc}") from exc
    n = config["N"]
    mbar = float(config["mbar"])
    total_mass = _total_mass(n, mbar)
    hbar = config["hbar"]
    x0, p0 = config["x0"], config["p0"]
    t_final, dt = config["t"], config["dt"]

    tables = []
    try:
        try:
            classical = evolve_classical(potential, total_mass, x0, p0, t_final, dt)
            times, xs, ps = (column.tolist() for column in classical)
            finite = all(map(math.isfinite, xs + ps))
        except ValueError as exc:  # the time grid: a whole number of steps, at most MAX_STEPS
            raise ConfigError(f"--t, --dt: {exc}") from exc
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("--potential, --x0, --p0, --mbar: the classical trajectory "
                              "leaves the floating-point range")
        tables.append(Table(
            "classical", ("t", "x", "p"),
            _float_rows(times, xs, ps),
        ))
        if config["model"] == "effective":
            try:
                mode, count = effective_cm_system(n, mbar, dim=config["dim"], hbar=hbar), 1
            except ValueError as exc:  # the mass N*mbar puts a scale out of range
                raise ConfigError(f"--N, --mbar, --hbar: {exc}") from exc
            try:
                psi0 = coherent_state(mode, x0, p0)
            except DimensionCapError as exc:  # the one CM mode holds all --dim levels
                raise ConfigError(f"--dim: {exc}") from exc
        else:
            mode, count = _mode(mbar, config["dim"], hbar), n
            try:
                psi0 = coherent_product(mode, n, x0, p0 / n)
            except DimensionCapError as exc:  # the occupation states of --N modes of --dim levels
                raise ConfigError(f"--N, --dim: {exc}") from exc
        spec = HamiltonianSpec(mode, count, potential)
        try:
            traj = evolve_quantum(psi0, spec, t_final, dt)
        except (OverflowError, ValueError) as exc:  # a power of X_CM, H, its spectrum, eigh
            raise ConfigError(f"--potential, --N, --mbar, --hbar, --dim: {exc}") from exc
        tables.insert(0, _trajectory_table(traj))

        deviation = compare_trajectories(traj, classical)
        tables.append(Table("deviation", ("metric", "value"), (
            ("max_x_deviation", _fmt(deviation.max_x_deviation)),
            ("max_v_deviation", _fmt(deviation.max_v_deviation)),
            ("final_x_deviation", _fmt(deviation.final_x_deviation)),
            ("final_v_deviation", _fmt(deviation.final_v_deviation)),
        )))
        if potential.is_quadratic:
            ok = deviation.max_x_deviation < HARMONIC_SANITY_TOLERANCE
            tables.append(Table("sanity", ("check", "result"), (
                (f"quadratic_deviation_lt_{HARMONIC_SANITY_TOLERANCE:g}",
                 "PASS" if ok else "FAIL"),
            )))
            if not ok:
                return ExperimentResult("evolve", tuple(tables), exit_code=2,
                                        failed="quadratic sanity check failed")
    except (ExcessiveTruncationError, NormDriftError) as exc:
        return ExperimentResult("evolve", tuple(tables), exit_code=2,
                                failed=f"{type(exc).__name__}: {exc}")
    return ExperimentResult("evolve", tuple(tables))


_RUNNERS = {
    "scaling": run_scaling,
    "residuals": run_residuals,
    "uncertainty": run_uncertainty,
    "evolve": run_evolve,
}


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _render_csv(result: ExperimentResult) -> str:
    lines = []
    multi = len(result.tables) > 1
    for table in result.tables:
        if multi:
            lines.append(f"# {table.name}")
        lines.append(",".join(table.columns))
        lines.extend(",".join(row) for row in table.rows)
    if result.failed is not None:
        lines.append(f"# FAILED {result.failed}")
    return "\n".join(lines) + "\n"


def _render_json(result: ExperimentResult) -> str:
    payload = {
        "experiment": result.experiment,
        "tables": [
            {"name": t.name, "columns": list(t.columns), "rows": [list(r) for r in t.rows]}
            for t in result.tables
        ],
        "failed": result.failed,
    }
    return json.dumps(payload, indent=2) + "\n"


def _write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {out_path!r}: {exc.strerror or exc}") from exc


def main(argv=None) -> int:
    try:
        config = build_config(argv)
        result = _RUNNERS[config.experiment](config)
        text = _render_csv(result) if config["format"] == "csv" else _render_json(result)
        _write_output(text, config["out"])
    except _Usage as usage:
        sys.stdout.write(str(usage))
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # contract: malformed input never produces a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
