"""Command-line front end.

Subcommands: `class` (constructors and transport maps for divisor-class
records), `family` (validation and exact evaluation of family files),
`certify` (positivity certificates), `thresholds` (case table per k), and
`fixtures` (recomputed-constant and identity checks).

Exit codes: 0 success, 1 data or validation error, 2 certification or
fixture failure. All rationals read and print as reduced "p/q".
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from . import families as fam
from . import morphisms as mor
from . import positivity as pos
from .divisors import (
    class_from_record,
    class_to_record,
    dk_class,
    log_canonical_class,
    make_weights,
)
from .errors import InvalidBoundaryKey, NefcertError
from .rational import format_rational, parse_rational


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _rat(text: str, flag: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as err:
        _fail(f"{flag}: {err}")


def _int(text: str, flag: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        _fail(f"{flag}: expected an integer, got {text!r}")


def _read_text(path: str, flag: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        _fail(f"{flag}: {err}")


def _weights(n: str, m: str, k: str):
    return make_weights(_int(n, "--n"), _int(m, "--m"), _int(k, "--k"))


def _input_class(command: str, ambient, use_dk: bool, c_text, record_flag, read_record):
    """The class a command reads: the dk ray at --c with --dk, else the
    record text read_record() returns, on the space ambient() returns.
    record_flag names the record file's flag when it was given, else None.
    Before either is called, --dk without --c fails, then --dk with a
    record file, then --c without --dk: no named input is dropped."""
    if use_dk and c_text is None:
        _fail(f"{command}: --dk needs --c")
    if use_dk and record_flag:
        _fail(f"{command}: --dk cannot be combined with {record_flag}")
    if c_text is not None and not use_dk:
        _fail(f"{command}: --c needs --dk")
    space = ambient()
    return (dk_class(space, _rat(c_text, "--c")) if use_dk
            else class_from_record(read_record(), space))


def _class_record(cls) -> dict:
    """The fields of a class as --json prints them."""
    return {
        "n": cls.ambient.n,
        "m": cls.ambient.m,
        "k": cls.ambient.k,
        "psi_sigma": format_rational(cls.psi_sigma),
        "psi_tau": [format_rational(v) for v in cls.psi_tau],
        "delta_s": format_rational(cls.delta_s),
        "delta": format_rational(cls.delta),
        "boundary": {key.label(): format_rational(value)
                     for key, value in sorted(cls.boundary.items())},
    }


def _emit_class(cls, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(_class_record(cls), indent=2))
    else:
        click.echo(f"# ambient n={cls.ambient.n} m={cls.ambient.m} k={cls.ambient.k}")
        click.echo(class_to_record(cls), nl=False)


class _Main(click.Group):
    """Reports a NefcertError raised by any command as `error: ...`, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NefcertError as err:
            _fail(str(err))


@click.group(cls=_Main)
def main() -> None:
    """Exact divisor-class calculus and positivity certificates."""


# --- class subcommands ---------------------------------------------------------

@main.group("class")
def class_group() -> None:
    """Divisor-class constructors and transport maps."""


_WEIGHT_FLAGS = [
    click.option("--n", "n", required=True, help="count of weight-1/k sections"),
    click.option("--m", "m", required=True, help="count of weight-1 sections"),
    click.option("--k", "k", required=True, help="weight denominator"),
]


def _with_weights(command):
    for flag in reversed(_WEIGHT_FLAGS):
        command = flag(command)
    return command


@class_group.command("dk")
@_with_weights
@click.option("--c", "c_text", required=True, help="ray parameter, p/q")
@click.option("--json", "as_json", is_flag=True)
def class_dk(n, m, k, c_text, as_json) -> None:
    """The ray c*psi_sigma + (2c-1)*delta_s + psi_tau - delta."""
    weights = _weights(n, m, k)
    _emit_class(dk_class(weights, _rat(c_text, "--c")), as_json)


@class_group.command("logcanonical")
@click.option("--n", "n", required=True)
@click.option("--alpha", "alpha_text", required=True, help="parameter in [0,1], p/q")
@click.option("--json", "as_json", is_flag=True)
def class_logcanonical(n, alpha_text, as_json) -> None:
    """psi + (alpha-2)*delta on the unweighted space, with its normalization."""
    alpha = _rat(alpha_text, "--alpha")
    form = log_canonical_class(_int(n, "--n"), alpha)
    if as_json:
        payload = {
            "raw": _class_record(form.raw),
            "normalized_c": format_rational(form.c),
            "normalized": _class_record(form.normalized),
        }
        click.echo(json.dumps(payload, indent=2))
        return
    click.echo(f"# ambient n={form.raw.ambient.n} m=0 k=1")
    click.echo(f"# normalized_c {format_rational(form.c)}")
    click.echo(class_to_record(form.raw), nl=False)


# name, docstring, map of (class, target), input space of the target (None:
# the target itself), optional comment line of (target, result)
_TRANSPORTS = (
    ("push", "Push a psi/delta class forward from the unweighted space onto (n,m,k).",
     mor.pushforward_reduction,
     lambda target: mor.MorphismSpec.reduction_from_unweighted(target).source, None),
    ("pull-reduction",
     "Pull a class on (n,m,k) back along the weight reduction from (n,m,k-1).",
     lambda cls, target: mor.pullback_reduction(cls), None,
     lambda target, result: (None if result.boundary
                             else f"# exceptional boundary[{target.k},0] 0")),
    ("pull-replacement", "Pull a class on (n,m,k) back along the section replacement.",
     lambda cls, target: mor.pullback_replacement(cls), None, None),
)


def _transport_command(name, doc, apply, input_space, comment):
    def command(n, m, k, in_path, use_dk, c_text, as_json) -> None:
        target = _weights(n, m, k)
        cls = _input_class(
            name, lambda: input_space(target) if input_space else target, use_dk, c_text,
            None if in_path is None else "--in",
            lambda: sys.stdin.read() if in_path is None else _read_text(in_path, "--in"))
        result = apply(cls, target)
        line = comment(target, result) if comment else None
        if line and not as_json:
            click.echo(line)
        _emit_class(result, as_json)

    command.__doc__ = doc
    # only push reads its input on another space, the unweighted source
    dk_help = "use the dk ray on the unweighted source as input" if input_space else None
    for option in reversed([
            click.option("--in", "in_path", type=click.Path(), default=None),
            click.option("--dk", "use_dk", is_flag=True, help=dk_help),
            click.option("--c", "c_text", default=None),
            click.option("--json", "as_json", is_flag=True)]):
        command = option(command)
    class_group.command(name)(_with_weights(command))


for _row in _TRANSPORTS:
    _transport_command(*_row)


# --- family subcommands ----------------------------------------------------------

def _load_family(path: str, concrete: str = "") -> fam.FamilyModel:
    """The family in the file at path; exits 1 naming every violation, or, when
    the command named by concrete pairs on terminal data, an abstract family."""
    text = _read_text(path, "PATH")
    try:
        family = fam.family_from_json(text)
    except NefcertError as err:
        _fail(f"{path}: {err}")
    violations = fam.validate_family(family)
    if violations:
        for violation in violations:
            click.echo(f"{path}: {violation}", err=True)
        sys.exit(1)
    if concrete and family.mode != fam.CONCRETE:
        _fail(f"{path}: {concrete} needs a concrete family, not an abstract one")
    return family


@main.group("family")
def family_group() -> None:
    """Validation and exact evaluation of family files."""


@family_group.command("validate")
@click.argument("path", type=click.Path())
def family_validate(path) -> None:
    """Report invariant violations; silent exit 0 when none."""
    _load_family(path)
    click.echo("valid")


@family_group.command("eval")
@click.argument("path", type=click.Path())
@click.option("--class-file", "class_path", type=click.Path(), default=None)
@click.option("--dk", "use_dk", is_flag=True)
@click.option("--c", "c_text", default=None)
def family_eval(path, class_path, use_dk, c_text) -> None:
    """Pair a divisor class with the family."""
    family = _load_family(path, "eval")
    cls = _input_class("eval", lambda: family.weights, use_dk, c_text,
                       None if class_path is None else "--class-file",
                       lambda: _fail("eval: need --dk --c or --class-file") if class_path is None
                       else _read_text(class_path, "--class-file"))
    click.echo(format_rational(fam.evaluate_class(cls, family)))


@family_group.command("numbers")
@click.argument("path", type=click.Path())
def family_numbers(path) -> None:
    """Intersection numbers of the family with the basis classes."""
    report = fam.intersection_numbers(_load_family(path, "numbers"))
    click.echo(f"psi_sigma\t{format_rational(report.psi_sigma_B)}")
    click.echo(f"psi_tau\t{format_rational(report.psi_tau_B)}")
    click.echo(f"delta_s\t{format_rational(report.delta_s_B)}")
    click.echo(f"delta\t{format_rational(report.delta_B)}")
    for key in sorted(report.boundary_counts):
        click.echo(f"boundary[{key.label()}]\t{report.boundary_counts[key]}")


@family_group.command("fvalues")
@click.argument("path", type=click.Path())
def family_fvalues(path) -> None:
    """Per-level potentials: i, F_delta, F_sigma, F_tau, F_sigma_tau."""
    family = _load_family(path)
    series = fam._f_series(family)
    click.echo("# i\tF_delta\tF_sigma\tF_tau\tF_sigma_tau")
    for level, values in enumerate(series):
        click.echo(str(level) + "\t" + "\t".join(format_rational(v) for v in values))


@family_group.command("gseries")
@click.argument("path", type=click.Path())
@click.option("--a", "a_text", required=True)
@click.option("--b", "b_text", required=True)
def family_gseries(path, a_text, b_text) -> None:
    """The combined potential per level for the (a, b) combination."""
    family = _load_family(path)
    a = _rat(a_text, "--a")
    b = _rat(b_text, "--b")
    coeffs = pos.CoefficientVector.from_ab(family.weights.n, family.weights.m, a, b)
    series = pos.g_series(family, coeffs)
    click.echo("# i\tG")
    for level, value in enumerate(series):
        click.echo(f"{level}\t{format_rational(value)}")


# --- certify ----------------------------------------------------------------------

def _certificate_record(cert: pos.Certificate) -> dict:
    """The fields of a certificate as --json prints them, None where missing."""
    witness = cert.witness
    record = {
        "verdict": cert.verdict,
        "n": cert.weights.n,
        "m": cert.weights.m,
        "k": cert.weights.k,
        "c": cert.c,
        "a": cert.a,
        "b": cert.b,
        "minimizer": [witness.r1, witness.r2] if witness else None,
        "minimizer_value": witness.value if witness else None,
        "margin": cert.margin,
        "strata": [[w.n, w.m, w.k] for w in cert.strata_checked],
        "zero_strata": [[w.n, w.m, w.k] for w in cert.zero_strata],
        "notes": list(cert.notes),
    }
    return {name: format_rational(value) if isinstance(value, Fraction) else value
            for name, value in record.items()}


def _label(counts) -> str:
    return ",".join(map(str, counts))


def _emit_certificate(cert: pos.Certificate, as_json: bool) -> None:
    """The certificate record as JSON, or as name-value rows and # notes."""
    record = _certificate_record(cert)
    if as_json:
        click.echo(json.dumps(record, indent=2))
        return
    rows = dict(record, weights=_label([record["n"], record["m"], record["k"]]),
                strata=" ".join(map(_label, record["strata"])),
                zero_strata=" ".join(map(_label, record["zero_strata"])))
    if record["minimizer"]:
        rows["minimizer"] = f"{_label(record['minimizer'])}\t{record['minimizer_value']}"
    for name in ("verdict", "weights", "c", "a", "b", "minimizer", "margin",
                 "strata", "zero_strata"):
        click.echo(f"{name}\t{rows[name] or '-'}")
    for note in record["notes"]:
        click.echo(f"# {note}")


@main.command("certify")
@_with_weights
@click.option("--c", "c_text", required=True)
@click.option("--eps", "eps_entries", multiple=True,
              help='boundary perturbation "i,j=p/q"; repeatable')
@click.option("--generic-only", is_flag=True,
              help="certify generically smooth families of (n,m,k) only")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
def certify(ctx, n, m, k, c_text, eps_entries, generic_only, as_json) -> None:
    """Universal positivity certificate for the dk ray at c."""
    weights = _weights(n, m, k)
    c = _rat(c_text, "--c")
    eps = {}
    for entry in eps_entries:
        head, equals, tail = entry.partition("=")
        try:
            i_text, j_text = head.split(",") if equals else ()
            key = (int(i_text), int(j_text))
        except ValueError:
            _fail(f'--eps: expected "i,j=p/q", got {entry!r}')
        if key in eps:
            _fail(f"--eps: ({head}) given twice")
        eps[key] = _rat(tail, "--eps")
    try:
        eps = pos.canonical_eps(weights, eps)
        certifier = pos.certify_generic if generic_only else pos.perturbed_certify
        cert = certifier(weights.n, weights.m, weights.k, c, eps=eps)
    except InvalidBoundaryKey as err:
        _fail(f"--eps: {err}")
    _emit_certificate(cert, as_json)
    if cert.verdict != pos.STRICTLY_POSITIVE:
        ctx.exit(2)


# --- thresholds -------------------------------------------------------------------

@main.command("thresholds")
@click.option("--k", "k_text", required=True)
@click.option("--nmax", "nmax_text", default="10")
@click.option("--mmax", "mmax_text", default="3")
def thresholds(k_text, nmax_text, mmax_text) -> None:
    """Case table: n, m, case, c or interval, c0, strict, for valid (n, m)."""
    k = _int(k_text, "--k")
    nmax = _int(nmax_text, "--nmax")
    mmax = _int(mmax_text, "--mmax")
    lo, hi = pos.ample_interval(k)
    hi_text = format_rational(hi) if hi is not None else "unbounded"
    click.echo(f"# ample_interval\t({format_rational(lo)}, {hi_text}" +
               ("]" if hi is not None else ")"))
    if k < 2:
        return
    click.echo("# n\tm\tcase\tc\tc0\tstrict")
    for n in range(nmax + 1):
        for m in range(mmax + 1):
            try:
                threshold = pos.threshold_c(n, m, k)
            except NefcertError:
                continue
            c0, strict = pos.c0_lower(n, m, k)
            click.echo(f"{n}\t{m}\t{threshold.case}\t{threshold.describe()}"
                       f"\t{format_rational(c0)}\t{'yes' if strict else 'no'}")


# --- fixtures ---------------------------------------------------------------------

@main.command("fixtures")
@click.pass_context
def fixtures(ctx) -> None:
    """Recompute the transport constants and identities from test families."""
    failures = 0

    def check(fixture: str, detail: str, expected, computed) -> None:
        nonlocal failures
        ok = expected == computed
        failures += 0 if ok else 1
        click.echo(f"{'PASS' if ok else 'FAIL'}\t{fixture}\t{detail}"
                   f"\texpected {expected}\tcomputed {computed}")

    for n in range(5, 13):
        weighted, stable = mor.pushforward_test_families(n)
        before = fam.intersection_numbers(weighted)
        after = fam.intersection_numbers(stable)
        click.echo(f"# pushforward-constants n={n}: product surface "
                   f"psi={before.psi_sigma_B} delta_s={before.delta_s_B} "
                   f"delta={before.delta_B}; stable model psi={after.psi_sigma_B} "
                   f"delta_s={after.delta_s_B} delta={after.delta_B} "
                   f"(collisions resolved: {after.delta_B})")
        check("pushforward-constants", f"n={n}", (Fraction(2), Fraction(1)),
              mor.derive_pushforward_constants(n))
        check("pushforward-collisions", f"n={n}", Fraction(n - 1), after.delta_B)

    for k in range(2, 11):
        n = 2 * k + 1
        numbers = mor.pullback_test_numbers(n, 0, k)
        click.echo(f"# pullback-constant k={k}: " + " ".join(
            f"{name}={format_rational(value)}" for name, value in sorted(numbers.items())))
        check("pullback-constant", f"k={k}", Fraction(-k),
              mor.derive_pullback_constant(n, 0, k))
        delta_rule = -numbers["delta"] / numbers["exceptional"]
        check("pullback-delta-rule", f"k={k}", Fraction(-1), delta_rule)

    for k in range(2, 21):
        n = 2 * k + 1
        transported, lower = pos._transport_pair(n, 0, k)
        check("reduction-functoriality", f"k={k}", lower, transported)

    for k in range(2, 11):
        c0 = pos.ample_interval(k)[1]
        for eps in (Fraction(1, 100), Fraction(1, 7)):
            pulled = mor.pullback_replacement(
                dk_class(make_weights(2 * k + 1, 1, k), c0 + eps))
            check("replacement-endpoint", f"k={k} eps={eps}",
                  1 - eps * k * (k - 2), pulled.psi_tau[-1])

    for k in range(2, 11):
        n = 2 * k + 1
        parts = mor.pullback_test_curve(n, 0, k)
        value = fam.stratified_evaluate(
            dk_class(make_weights(n, 0, k - 1), pos.ample_interval(k)[1]), parts)
        check("contracted-curve-zero", f"k={k}", Fraction(0), value)

    if failures:
        click.echo(f"{failures} fixture(s) failed", err=True)
        ctx.exit(2)


if __name__ == "__main__":
    main()
