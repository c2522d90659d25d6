"""Seeded inputs, operations and output checks of the four benchmark workloads.

Every workload is a deterministic stream of operations built from the seed
alone: the generators below never call nefcert, so the program only sees the
generated inputs. Each operation is a small JSON-serialisable dict. Running
one (``run_op``) is the timed part; checking its result (``check_op``) is not
timed and never calls nefcert, so the checks add no work to the traced
layers.

The streams are built in rounds of fixed shape (the same size classes in the
same order in every round, only the concrete values drawn from the seed), so
any prefix that a time-boxed run completes has nearly the same mix of cheap
and expensive operations whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import count, islice

DEFAULT_SEED = 0
WORKLOADS = ("certify-wide", "certify-deep", "families", "cli")

STRICT = "strictly_positive"
ZERO = "nonnegative_zero_characterized"


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def digest(payload) -> str:
    """Short content digest of a JSON-serialisable value or of raw bytes."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def interval(k: int) -> tuple[Fraction, Fraction]:
    return Fraction(k + 2, 2 * k + 2), Fraction(k + 1, 2 * k)


def interior_c(rng: random.Random, k: int) -> str:
    lo, hi = interval(k)
    denominator = rng.choice((7, 11, 13, 17))
    return str(lo + (hi - lo) * Fraction(rng.randint(1, denominator - 1), denominator))


def admissible(n: int, m: int, k: int) -> list[tuple[int, int]]:
    """Step counts (r1, r2) with both sides of the node above weight 1."""
    return [(r1, r2) for r1 in range(n + 1) for r2 in range(m + 1)
            if Fraction(r1, k) + r2 > 1 and Fraction(n - r1, k) + m - r2 > 1]


def canonical_keys(n: int, m: int, k: int) -> list[tuple[int, int]]:
    return [(i, j) for i, j in admissible(n, m, k) if (i, j) <= (n - i, m - j)]


# --- certify-wide ---------------------------------------------------------------

# Five size classes visited round-robin, the middle and the fourth by two
# streams each, so that the median op falls in the middle class and the tail
# (the 11th largest) in the fourth, whatever the number of ops a run
# completes. Each stream walks through its shapes in a fixed order, one
# weight vector per 5 or 6 of its ops, so every seed spends the same work on
# the same grids and the seed draws the c values and the eps perturbations.
# Mean op times on the reference host: about 0.13, 0.22, 0.4, 0.52 and
# 1.6-2.6 s.
WIDE_CLASSES = (
    ((16, 2, 3), (12, 3, 3), (15, 2, 3)),
    ((16, 3, 3), (12, 6, 3), (18, 2, 3)),
    ((18, 3, 4), (16, 4, 4), (20, 3, 4)),
    ((19, 3, 4), (22, 2, 5), (15, 5, 4)),
    ((22, 3, 4), (14, 8, 3), (24, 2, 5)),
    ((21, 3, 4), (16, 5, 4), (23, 2, 5)),
    ((26, 4, 5), (28, 4, 5), (30, 4, 5)),
)
# Order in which one weight vector's ops are issued. Only the first op of a
# vector sees it for the first time, so 4/5 or 5/6 of all ops are repeats.
WIDE_ROLES = (("mid", "lo", "eps", "hi", "mid", "mid"),
              ("mid", "lo", "mid", "hi", "mid"))


def _wide_vector_ops(rng, shape, with_eps):
    n, m, k = shape
    lo, hi = interval(k)
    for role in WIDE_ROLES[0 if with_eps else 1]:
        op = {"kind": "certify", "n": n, "m": m, "k": k, "role": role}
        if role == "lo":
            op["c"] = str(lo)
        elif role == "hi":
            op["c"] = str(hi)
        else:
            op["c"] = interior_c(rng, k)
        if role == "eps":
            # canonical admissible keys only; |value| stays below the
            # 1/(4(k+1)) margin of every shape above, so positivity holds
            keys = rng.sample(canonical_keys(n, m, k), 2)
            op["eps"] = [[i, j, str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 4),
                                             32 * (k + 1)))] for i, j in sorted(keys)]
        yield op


def wide_ops(seed: int):
    rng = rng_for("certify-wide", seed)
    streams = [_wide_class_stream(random.Random(rng.random()), shapes)
               for shapes in WIDE_CLASSES]
    while True:
        for stream in streams:
            yield next(stream)


def _wide_class_stream(rng, shapes):
    for vector in count():
        n, m, k = shapes[vector % len(shapes)]
        # past the end of the list, one more light point per pass keeps every
        # vector new, so the repeat share stays the same in longer runs
        n += vector // len(shapes)
        yield from _wide_vector_ops(rng, (n, m, k), vector % 2 == 0)


# --- certify-deep ---------------------------------------------------------------

# Six slots per round. Each walks its (n, m, k) entries in order; the seed
# draws k within 10% of the entry's and the interior c. The entries of one
# slot cost about the same (about 100, 250, 400, 400, 700 and 700 ms per op
# on the reference host), so the median op falls in the two 400 ms slots and
# the tail (the 11th largest) in the two 700 ms slots on every seed. The
# small-k entries, whose cost moves most with a 10% change of k, sit away
# from the median.
DEEP_SLOTS = (
    ((2, 3, 60), (3, 2, 84), (1, 3, 88)),
    ((3, 3, 86), (1, 5, 94), (6, 6, 10)),
    ((6, 2, 112), (7, 2, 102), (2, 5, 75)),
    ((8, 2, 80), (4, 3, 87), (1, 6, 108)),
    ((2, 6, 97), (1, 6, 180), (8, 8, 10)),
    ((6, 3, 84), (7, 3, 81), (7, 7, 18)),
)
DEEP_K_LIMIT = 250  # certify_interval raises RecursionError near k = 600


def deep_ops(seed: int):
    rng = rng_for("certify-deep", seed)
    used = set()
    for round_index in count():
        for slot in DEEP_SLOTS:
            n, m, centre = slot[round_index % len(slot)]
            k = round(centre * rng.uniform(0.9, 1.1))
            while (n, m, k) in used:  # no weight vector repeats
                k += 1
            used.add((n, m, k))
            yield {"kind": "certify", "n": n, "m": m, "k": k, "role": "mid",
                   "c": interior_c(rng, k)}


# --- families -------------------------------------------------------------------

def random_family(rng: random.Random, n: int, m: int, k: int, steps: int,
                  max_extra: int | None = None) -> dict:
    """A valid concrete family file (as a dict) with m in {0, 1}.

    Terminal self-intersections follow from the step incidences: with m = 0,
    e_i = 2 d_ii + 2 r_i keeps every level-0 light pair nonnegative; with
    m = 1 the heavy section must end disjoint from every light one, which
    pins e_i = 2 d_iT - t, and t is taken at or below the largest value that
    keeps the light pairs nonnegative.
    """
    pairs = admissible(n, m, k)
    if max_extra is not None:
        pairs = [(r1, r2) for r1, r2 in pairs if r1 <= k + max_extra]
    chosen = [rng.choice(pairs) for _ in range(steps)]
    step_sets = [(sorted(rng.sample(range(1, n + 1), r1)), list(range(1, r2 + 1)))
                 for r1, r2 in chosen]
    together = [0] * n  # steps containing light section i and the heavy one
    pair_count: dict[tuple[int, int], int] = {}
    diagonal = [0] * n
    for sigma, tau in step_sets:
        for x in sigma:
            diagonal[x - 1] += 1
            if tau:
                together[x - 1] += 1
        if m:
            for a in range(len(sigma)):
                for b in range(a + 1, len(sigma)):
                    key = (sigma[a] - 1, sigma[b] - 1)
                    pair_count[key] = pair_count.get(key, 0) + 1
    if m == 0:
        e_sigma, e_tau = [2 * d + 2 * rng.randint(0, 2) for d in diagonal], []
    else:
        t = min((together[a] + together[b] - pair_count.get((a, b), 0)
                 for a in range(n) for b in range(a + 1, n)), default=0)
        t -= rng.randint(0, 2)
        e_sigma, e_tau = [2 * d - t for d in together], [t]
    return {"n": n, "m": m, "k": k, "mode": "concrete",
            "steps": [{"sigma": s, "tau": t} for s, t in step_sets],
            "final_e_sigma": e_sigma, "final_e_tau": e_tau}


def family_text(family: dict) -> str:
    return json.dumps(family, indent=2) + "\n"


def _small_weights(rng):
    while True:
        k = rng.choice((1, 2, 3))
        n, m = rng.randint(4, 12), rng.randint(0, 1)
        if m + Fraction(n, k) > 2 and admissible(n, m, k):
            return n, m, k


LONG_STEPS = (100, 125, 150, 175, 200)
# One long-chain op per round; the short ops take about the same time in
# total, so both halves weigh in ops_per_s.
FAMILY_ROUND = ("long",) + ("short",) * 150 + ("morph",) * 60 + ("derive",) * 20


def families_ops(seed: int):
    rng = rng_for("families", seed)
    long_chain = None
    for round_index in count():
        for slot, kind in enumerate(FAMILY_ROUND):
            if kind == "long":
                # each long chain gets g_series, then f_values at every level
                if round_index % 2 == 0:
                    n, m = rng.randint(24, 30), rng.randint(0, 1)
                    k = rng.choice((2, 3))
                    steps = LONG_STEPS[(round_index // 2) % len(LONG_STEPS)]
                    long_chain = family_text(random_family(
                        rng, n, m, k, steps + rng.randint(-3, 3), max_extra=3))
                    a = str(Fraction(rng.randint(1, 9), 10))
                    b = str(Fraction(rng.randint(0, 9), 10)) if m else "0"
                    yield {"kind": "gseries", "family": long_chain, "a": a, "b": b}
                else:
                    yield {"kind": "fvalues", "family": long_chain}
            elif kind == "short":
                n, m, k = _small_weights(rng)
                family = random_family(rng, n, m, k, rng.randint(0, 10))
                yield {"kind": "short", "family": family_text(family),
                       "c": str(Fraction(rng.randint(1, 19), 20))}
            elif kind == "morph":
                yield _morph_op(rng, ("pull-reduction", "pull-replacement",
                                      "push")[slot % 3])
            else:
                if slot % 2:
                    yield {"kind": "derive-push", "n": rng.randint(5, 12)}
                else:
                    k = rng.randint(2, 6)
                    yield {"kind": "derive-pull", "n": 2 * k + rng.randint(1, 3),
                           "m": rng.randint(0, 2), "k": k}


def _morph_op(rng, kind):
    while True:
        k, m = rng.randint(2, 6), rng.randint(0, 3)
        n = rng.randint(k + 3, k + 10)
        # the reduction source (n, m, k-1) and the replacement source
        # (n-k, m+1, k) must be weight vectors too
        if m + Fraction(n, k - 1) > 2 and m + 1 + Fraction(n - k, k) > 2:
            return {"kind": kind, "n": n, "m": m, "k": k,
                    "c": str(Fraction(rng.randint(1, 29), 30))}


# --- cli ------------------------------------------------------------------------

README_FAMILY = {
    "n": 5, "m": 0, "k": 1, "mode": "concrete",
    "steps": [{"sigma": [1, 5], "tau": []}, {"sigma": [2, 5], "tau": []}],
    "final_e_sigma": [0, 0, 0, 0, 2],
    "final_e_tau": [],
}


def cli_ops(seed: int):
    """The README commands, with seeded arguments, one round after another.

    Family files are named here and written by ``CliContext.write_family``;
    "readme.json" is the README example itself.
    """
    rng = rng_for("cli", seed)
    for round_index in count():
        fam = "readme.json" if round_index % 4 == 0 else f"family-{round_index}.json"
        n, m, k = _small_weights(rng)
        family = README_FAMILY if fam == "readme.json" else random_family(
            rng, n, m, k, rng.randint(1, 8))
        c = str(Fraction(rng.randint(11, 19), 20))
        k2 = rng.randint(2, 4)
        lo, hi = interval(k2)
        n2 = rng.randint(2 * k2 + 1, 2 * k2 + 4)
        c2 = interior_c(rng, k2)
        cn, cm, ck = rng.choice(((7, 0, 2), (6, 0, 2), (5, 1, 2), (6, 1, 3), (8, 0, 3)))
        ci = interior_c(rng, ck)
        key = rng.choice(canonical_keys(cn, cm, ck))
        eps = f"{key[0]},{key[1]}={Fraction(-rng.randint(1, 4), 32 * (ck + 1))}"
        a = str(Fraction(rng.randint(1, 9), 10))
        yield from (
            {"argv": ["class", "dk", "--n", str(n2), "--m", "0", "--k", str(k2),
                      "--c", c2]},
            {"argv": ["class", "logcanonical", "--n", str(rng.randint(4, 9)),
                      "--alpha", str(Fraction(rng.randint(0, 6), 6))]},
            {"argv": ["class", "dk", "--n", str(n2), "--m", "0", "--k", str(k2),
                      "--c", str(hi)],
             "pipe": ["class", "pull-reduction", "--n", str(n2), "--m", "0",
                      "--k", str(k2)]},
            {"argv": ["class", "pull-replacement", "--n", str(n2), "--m", "0",
                      "--k", str(k2), "--dk", "--c", c2]},
            # a second pipe per round puts the 11th-largest latency among
            # the pipes instead of on the edge between them and the rest
            {"argv": ["class", "dk", "--n", str(n2), "--m", "0", "--k", str(k2),
                      "--c", c2],
             "pipe": ["class", "pull-reduction", "--n", str(n2), "--m", "0",
                      "--k", str(k2), "--json"]},
            {"argv": ["family", "validate", fam], "file": family},
            {"argv": ["family", "eval", fam, "--dk", "--c", c], "file": family},
            {"argv": ["family", "numbers", fam], "file": family},
            {"argv": ["family", "fvalues", fam], "file": family},
            {"argv": ["family", "gseries", fam, "--a", a, "--b", "0"], "file": family},
            {"argv": ["certify", "--n", str(cn), "--m", str(cm), "--k", str(ck),
                      "--c", ci, "--json"]},
            {"argv": ["certify", "--n", str(cn), "--m", str(cm), "--k", str(ck),
                      "--c", str(interval(ck)[0]), "--json"]},
            {"argv": ["certify", "--n", str(cn), "--m", str(cm), "--k", str(ck),
                      "--c", ci, "--eps", eps]},
            {"argv": ["certify", "--n", str(cn), "--m", str(cm), "--k", str(ck),
                      "--c", ci, "--generic-only"]},
            {"argv": ["thresholds", "--k", str(k2), "--nmax", str(rng.randint(6, 12)),
                      "--mmax", str(rng.randint(1, 3))]},
            {"argv": ["fixtures"]},
        )


GENERATORS = {
    "certify-wide": wide_ops,
    "certify-deep": deep_ops,
    "families": families_ops,
    "cli": cli_ops,
}
# ops per round; a timed run ends on a round boundary, so its mix is the same
# whatever the seed and the speed of the program
ROUND_OPS = {
    "certify-wide": len(WIDE_CLASSES),
    "certify-deep": len(DEEP_SLOTS),
    "families": len(FAMILY_ROUND),
    "cli": 16,
}


def build_ops(workload: str, seed: int, how_many: int) -> list[dict]:
    return list(islice(GENERATORS[workload](seed), how_many))


# --- running ops ----------------------------------------------------------------

class CliContext:
    """Where cli ops run: the checkout root, its src on PYTHONPATH, and a work
    directory for the family files."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def command(self, argv):
        return [sys.executable, "-m", "nefcert.cli"] + [
            os.path.join(self.workdir, a) if a.endswith(".json") else a for a in argv]

    def write_family(self, op: dict) -> None:
        """Write the family file an op reads, once, before the op is timed."""
        if op.get("file") is None:
            return
        name = next(a for a in op["argv"] if a.endswith(".json"))
        path = os.path.join(self.workdir, name)
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(family_text(op["file"]))


def run_op(nefcert, op: dict, cli: CliContext | None):
    """Execute one op and return its raw result. This is the timed part."""
    if cli is not None:
        return _run_cli(op, cli)
    kind = op["kind"]
    if kind == "certify":
        if op.get("eps"):
            eps = {(i, j): Fraction(v) for i, j, v in op["eps"]}
            return nefcert.perturbed_certify(op["n"], op["m"], op["k"], Fraction(op["c"]), eps)
        return nefcert.certify_interval(op["n"], op["m"], op["k"], Fraction(op["c"]))
    if kind == "gseries":
        family = nefcert.family_from_json(op["family"])
        coeffs = nefcert.CoefficientVector.from_ab(
            family.weights.n, family.weights.m, Fraction(op["a"]), Fraction(op["b"]))
        return nefcert.g_series(family, coeffs)
    if kind == "fvalues":
        family = nefcert.family_from_json(op["family"])
        return [nefcert.f_values(family, level) for level in range(family.n_steps + 1)]
    if kind == "short":
        family = nefcert.family_from_json(op["family"])
        violations = nefcert.validate_family(family)
        report = nefcert.intersection_numbers(family)
        cls = nefcert.dk_class(family.weights, Fraction(op["c"]))
        value = nefcert.evaluate_class(cls, family)
        text = nefcert.family_to_json(family)
        record = nefcert.class_to_record(cls)
        return {"violations": violations, "report": report, "value": value,
                "text": text, "reparsed": nefcert.family_from_json(text) == family,
                "record": record,
                "record_back": nefcert.class_from_record(record, cls.ambient) == cls}
    if kind in ("pull-reduction", "pull-replacement", "push"):
        weights = nefcert.make_weights(op["n"], op["m"], op["k"])
        c = Fraction(op["c"])
        if kind == "pull-reduction":
            out = nefcert.pullback_reduction(nefcert.dk_class(weights, c))
        elif kind == "pull-replacement":
            out = nefcert.pullback_replacement(nefcert.dk_class(weights, c))
        else:
            source = nefcert.make_weights(weights.n + weights.m, 0, 1)
            out = nefcert.pushforward_reduction(nefcert.dk_class(source, c), weights)
        record = nefcert.class_to_record(out)
        return {"record": record,
                "record_back": nefcert.class_from_record(record, out.ambient) == out}
    if kind == "derive-push":
        return nefcert.derive_pushforward_constants(op["n"])
    if kind == "derive-pull":
        return nefcert.derive_pullback_constant(op["n"], op["m"], op["k"])
    raise ValueError(f"unknown op kind {kind!r}")


def _run_cli(op: dict, cli: CliContext):
    first = subprocess.run(cli.command(op["argv"]), cwd=cli.root, env=cli.env,
                           stdin=subprocess.DEVNULL, capture_output=True)
    if "pipe" not in op:
        return first.returncode, first.stdout
    second = subprocess.run(cli.command(op["pipe"]), cwd=cli.root, env=cli.env,
                            input=first.stdout, capture_output=True)
    return max(first.returncode, second.returncode), second.stdout


# --- checking ops ---------------------------------------------------------------

def _fmt(value):
    return None if value is None else str(value)


def certificate_payload(cert) -> dict:
    """The certificate fields that `nefcert certify --json` prints."""
    witness = cert.witness
    return {
        "verdict": cert.verdict, "n": cert.weights.n, "m": cert.weights.m,
        "k": cert.weights.k, "c": str(cert.c), "a": _fmt(cert.a), "b": _fmt(cert.b),
        "minimizer": [witness.r1, witness.r2] if witness else None,
        "minimizer_value": _fmt(witness.value) if witness else None,
        "margin": _fmt(cert.margin),
        "strata": [[w.n, w.m, w.k] for w in cert.strata_checked],
        "zero_strata": [[w.n, w.m, w.k] for w in cert.zero_strata],
        "notes": list(cert.notes),
    }


def _certificate_problems(op, payload) -> list[str]:
    problems = []
    if op["role"] == "lo":
        if payload["verdict"] != ZERO or not payload["zero_strata"]:
            problems.append(f"lower endpoint gave {payload['verdict']} with zero strata "
                            f"{payload['zero_strata']}")
    elif payload["verdict"] != STRICT:
        problems.append(f"{op['role']} c gave {payload['verdict']}")
    if payload["margin"] != payload["minimizer_value"]:
        problems.append(f"margin {payload['margin']} != witness value "
                        f"{payload['minimizer_value']}")
    return problems


def check_op(op: dict, result) -> tuple[str, list[str]]:
    """Digest of the op's output and the invariant violations found in it."""
    if "argv" in op:
        return _check_cli(op, result)
    kind = op["kind"]
    if kind == "certify":
        payload = certificate_payload(result)
        return digest(payload), _certificate_problems(op, payload)
    if kind == "gseries":
        problems = [] if result[-1] == 0 else [f"g_series ends at {result[-1]}"]
        return digest([str(v) for v in result]), problems
    if kind == "fvalues":
        problems = [] if result[-1] == (0, 0, 0, 0) else ["f_values nonzero at the last level"]
        return digest([[str(v) for v in row] for row in result]), problems
    if kind == "short":
        report = result["report"]
        problems = [f"violation: {v}" for v in result["violations"]]
        if result["text"] != op["family"]:
            problems.append("family_to_json does not reproduce the input file")
        if not result["reparsed"]:
            problems.append("family JSON round trip changed the family")
        if not result["record_back"]:
            problems.append("class record round trip changed the class")
        return digest({
            "numbers": [str(report.psi_sigma_B), str(report.psi_tau_B),
                        str(report.delta_s_B), str(report.delta_B)],
            "boundary": sorted([key.i, key.j, v] for key, v in report.boundary_counts.items()),
            "value": str(result["value"]), "record": result["record"],
        }), problems
    if kind in ("pull-reduction", "pull-replacement", "push"):
        problems = [] if result["record_back"] else ["class record round trip changed the class"]
        return digest(result["record"]), problems
    if kind == "derive-push":
        problems = [] if result == (2, 1) else [f"push-forward constants {result}"]
        return digest([str(v) for v in result]), problems
    if kind == "derive-pull":
        problems = [] if result == -op["k"] else [f"pull-back constant {result}"]
        return digest(str(result)), problems
    raise ValueError(f"unknown op kind {kind!r}")


def _check_cli(op: dict, result) -> tuple[str, list[str]]:
    code, stdout = result
    argv = op["argv"]
    problems = []
    text = stdout.decode("utf-8", "replace")
    if not stdout:
        problems.append("empty stdout")
    if argv[0] == "certify":
        verdict = (json.loads(text)["verdict"] if "--json" in argv
                   else text.split("\n", 1)[0].partition("\t")[2])
        lower = argv[argv.index("--c") + 1] == str(interval(int(argv[argv.index("--k") + 1]))[0])
        if "--generic-only" not in argv:
            want = ZERO if lower else STRICT
            if verdict != want:
                problems.append(f"certify gave {verdict}, expected {want}")
        if code != (0 if verdict == STRICT else 2):
            problems.append(f"exit code {code} for verdict {verdict}")
    elif code != 0:
        problems.append(f"exit code {code}")
    if argv[:2] == ["family", "validate"] and text != "valid\n":
        problems.append("family validate did not print 'valid'")
    if argv[:2] == ["family", "gseries"] and not text.endswith("\t0\n"):
        problems.append("gseries does not end at 0")
    return digest(code.to_bytes(2, "big") + stdout), problems
