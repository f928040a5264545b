"""The four benchmark workloads.

Each workload turns a seed into inputs (the benchmark's own work, kept out
of every timing), does the program's set-up, and hands back a list of items.
An item is one timed call into the package's public API plus an untimed
check of its output.  ``finish`` runs the checks that need no item of
their own, once after the last pass.  The package is reached only through module attributes looked
up at call time, so the traced run sees every call.

Why each workload exists, and which layer and metric it is meant to move,
is written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import kolmosphere as ks
from kolmosphere import cli

from common import ROOT

FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"


@dataclass
class Item:
    """``run`` is timed; ``check`` gets its result afterwards and returns a
    failure description, or None when the output is right."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


class Workload:
    name = ""
    # True when ``pass_items`` draws new inputs for every pass.
    fresh_items = False

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def prepare(self) -> List[Item]:
        """The program's own set-up, counted in ``setup_s``; returns the
        items of the first pass."""
        raise NotImplementedError

    def pass_items(self, first: List[Item], k: int) -> List[Item]:
        """Items of pass ``k``: the first pass's again, unless a workload
        draws fresh inputs for every pass."""
        return first

    def finish(self) -> List[str]:
        """Checks run once after the last pass."""
        return []


# ----- random inputs -----------------------------------------------------------


def rand_fraction(rng: random.Random, allow_zero: bool = True) -> Fraction:
    while True:
        value = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if allow_zero or value:
            return value


def rand_poly(shape: random.Random, values: random.Random, dim: int,
              degree: int, nterms: int) -> "ks.Poly":
    """``nterms`` distinct monomials of degree at most ``degree`` drawn from
    ``shape``, with nonzero coefficients drawn from ``values``."""
    monomials = set()
    while len(monomials) < nterms:
        exps = [0] * dim
        for _ in range(shape.randint(0, degree)):
            exps[shape.randrange(dim)] += 1
        monomials.add(tuple(exps))
    return ks.Poly(dim, {
        exps: rand_fraction(values, allow_zero=False) for exps in sorted(monomials)
    })


def rand_skew(rng: random.Random, dim: int) -> List[List[Fraction]]:
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            rows[i][j] = rand_fraction(rng)
            rows[j][i] = -rows[i][j]
    return rows


def paired_cubic_form(rng: random.Random, dim: int):
    """Random constant form whose coordinates i < j share one cofactor, so
    x_i / x_j is a first integral and the plane x_i = x_j is invariant.
    Returns (form, i, j), 0-based."""
    i, j = sorted(rng.sample(range(dim), 2))
    alpha = [rand_fraction(rng, allow_zero=False) for _ in range(dim)]
    atilde = rand_skew(rng, dim)
    alpha[j] = alpha[i]
    atilde[i][j] = atilde[j][i] = Fraction(0)
    for k in range(dim):
        if k not in (i, j):
            atilde[j][k] = atilde[i][k]
            atilde[k][j] = -atilde[i][k]
    return ks.CubicKolmogorovForm.from_values(alpha, atilde), i, j


def uniform_cubic_form(rng: random.Random, dim: int):
    """Every coordinate has the same cofactor, so B has rank two and the
    field is completely integrable."""
    c = rand_fraction(rng, allow_zero=False)
    return ks.CubicKolmogorovForm.from_values([c] * dim, [[0] * dim] * dim)


def sphere_text(dim: int, sign: int = 1) -> str:
    squares = " + ".join(f"x{i}^2" for i in range(1, dim + 1))
    if sign > 0:
        return f"{squares} - 1"
    return "1 - " + " - ".join(f"x{i}^2" for i in range(1, dim + 1))


def x_squared(dim: int, i: int) -> "ks.Poly":
    exps = [0] * dim
    exps[i] = 2
    return ks.Poly(dim, {tuple(exps): Fraction(1)})


def predicted_sphere_cofactor(form) -> "ks.Poly":
    """-2 sum_i ftilde_i x_i^2: the unit sphere's cofactor for an assembled
    field, from the assembly data alone."""
    total = ks.Poly.zero(form.dim)
    for i, f in enumerate(form.ftilde):
        total = total - 2 * f * x_squared(form.dim, i)
    return total


# ----- certify_small -------------------------------------------------------------


class CertifySmall(Workload):
    """One item is one suite instance: ``run_suite(name, seed, instances=1)``
    with its own seed, so a pass covers each suite's default instance count
    drawn from the same generator as a default-size run.  Every pass draws
    fresh instance seeds: single instances differ in cost by 10x, and
    pooling thousands of them keeps the percentiles from hanging on the
    few slowest instances of one seed."""

    name = "certify_small"
    fresh_items = True
    SUITE_NAMES = ("roundtrip", "thm41", "thm37")

    def plan(self, k: int):
        rng = random.Random(f"certify_small/{self.seed}/{k}")
        out = []
        for suite in self.SUITE_NAMES:
            count = ks.suites.DEFAULT_INSTANCES[suite]
            if self.tiny:
                count = max(1, count // 50)
            out += [(suite, rng.randrange(2**31)) for _ in range(count)]
        return out

    def prepare(self):
        return self.pass_items([], 0)

    def pass_items(self, first, k):
        return [
            Item(f"{suite}/{s}", _suite_call(suite, s), _suite_check)
            for suite, s in self.plan(k)
        ]


def _suite_call(suite: str, seed: int):
    return lambda: ks.suites.run_suite(suite, seed=seed, instances=1)


def _suite_check(report) -> Optional[str]:
    if report.instances != 1 or not report.passed:
        return f"{report.name}: {report.failures[:2]}"
    return None


# ----- cli_fields ----------------------------------------------------------------


@dataclass
class Command:
    argv: List[str]
    code: int
    golden: Optional[str] = None
    check: Optional[Callable[[str], Optional[str]]] = None


def run_cli(argv: Sequence[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exit_:  # argparse rejects the command line
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


class CliFields(Workload):
    """Every README command through ``cli.main``: on the shipped fixtures,
    compared byte for byte with the goldens, and on seeded large inputs."""

    name = "cli_fields"

    # (dimension, field degree m, terms per ftilde entry); the atilde
    # entries get half as many.
    LARGE_FIELDS = ((4, 11, 22), (5, 9, 16), (6, 7, 10), (4, 8, 24))
    TINY_FIELDS = ((4, 5, 3),)

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        # The monomials of every input come from a fixed stream and only
        # the coefficients and start points from the seed, so that seeds
        # change values and not the amount of work.
        self.shape = random.Random("cli_fields/shape")
        self.rng = random.Random(f"cli_fields/{seed}")
        self.large_polys: List = []
        self.commands: List[Command] = self._fixture_commands()
        for k, (d, m, nt) in enumerate(self.TINY_FIELDS if tiny else self.LARGE_FIELDS):
            self.commands += self._large_field_commands(k, d, m, nt)
        self.commands += self._large_form_commands(4 if tiny else 6)
        self.commands += self._construct_commands(tiny)
        self.commands += self._integrate_command(300 if tiny else 3000)

    def _poly(self, dim, degree, nterms):
        return rand_poly(self.shape, self.rng, dim, degree, nterms)

    def _write(self, name: str, payload: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def _fixture_commands(self) -> List[Command]:
        field = str(FIXTURES / "demo3d_field.json")
        form = str(FIXTURES / "demo3d_form.json")
        seed = str(FIXTURES / "rotation_seed.json")
        js = ["--format", "json"]
        return [
            Command(["check", "--field", field] + js, 0, "check_demo3d.json"),
            Command(["check", "--field", field], 0, "check_demo3d.txt"),
            Command(["cofactor", "--field", field, "--surface",
                     "x1^2 + x2^2 + x3^2 - 1"] + js, 0, "cofactor_sphere.json"),
            Command(["darboux", "--form", form, "--g",
                     "1 - x1^2 - x2^2 - x3^2"] + js, 0, "darboux_demo3d.json"),
            Command(["syzygy-fi", "--form", form] + js, 0, "syzygy_demo3d.json"),
            Command(["classify-hyperplane", "--form", form, "--a0", "1",
                     "--a", "1,0,1"] + js, 1, "classify_offset.json"),
            Command(["classify-hyperplane", "--form", form, "--a0", "0",
                     "--a", "1,0,-1"] + js, 0),
            Command(["construct", "linear-fi", "--a0", "5", "--a", "1,2,3",
                     "--seed", seed] + js, 0,
                    check=_conserves_plane(ks.HyperplaneSpec.from_values(5, [1, 2, 3]))),
            Command(["construct", "complete", "--n", "2", "--m", "4",
                     "--atilde", "x1"] + js, 0, "construct_complete.json"),
            Command(["construct", "cubic", "--form", form] + js, 0),
            Command(["hamiltonian", "--constraint-space", "--n", "2"] + js, 0,
                    "constraint_n2.json"),
        ]

    def _large_field_commands(self, k, d, m, nt) -> List[Command]:
        ftilde = tuple(self._poly(d, m - 3, nt) for _ in range(d))
        rows = [[ks.Poly.zero(d)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                rows[i][j] = self._poly(d, m - 3, max(1, nt // 2))
                rows[j][i] = -rows[i][j]
        form = ks.KolmogorovForm(d, ftilde, tuple(tuple(r) for r in rows))
        vf = ks.construct_from_form(form)
        self.large_polys += [(p, d) for p in vf.components]
        path = self._write(f"field{k}.json", ks.field_to_dict(vf))
        cofactor = predicted_sphere_cofactor(form)
        js = ["--format", "json"]
        commands = [
            Command(["check", "--field", path] + js, 0,
                    check=_json_poly("sphere_cofactor", cofactor)),
            Command(["cofactor", "--field", path, "--surface", sphere_text(d)] + js,
                    0, check=_json_poly("cofactor", cofactor)),
        ]
        if d % 2 == 0:  # Hamiltonian structure pairs the coordinates
            commands.append(Command(["hamiltonian", "--field", path] + js,
                                    0 if _divergence(vf).is_zero() else 1))
        return commands

    def _large_form_commands(self, d) -> List[Command]:
        form, i, j = paired_cubic_form(self.rng, d)
        path = self._write("form.json", ks.cubic_form_to_dict(form))
        a = ["0"] * d
        a[i], a[j] = "1", "-1"
        js = ["--format", "json"]
        return [
            Command(["darboux", "--form", path, "--g", sphere_text(d, -1)] + js, 0,
                    check=_has_integrals),
            Command(["syzygy-fi", "--form", path] + js, 0, check=_has_integrals),
            Command(["classify-hyperplane", "--form", path, "--a0", "0",
                     "--a=" + ",".join(a)] + js, 0),
            Command(["construct", "cubic", "--form", path] + js, 0),
        ]

    def _construct_commands(self, tiny) -> List[Command]:
        d = 4 if tiny else 5
        a = [rand_fraction(self.rng, allow_zero=False) for _ in range(d)]
        a0 = rand_fraction(self.rng, allow_zero=False)
        width = d - 1
        entries = [["0"] * width for _ in range(width)]
        for i in range(width):
            for j in range(i + 1, width):
                p = self._poly(d, 2, 2 if tiny else 4)
                entries[i][j], entries[j][i] = str(p), str(-p)
        seed_path = self._write("seed.json", {"entries": entries})
        n, m = (2, 5) if tiny else (4, 9)
        atilde = self._poly(n + 1, m - 3, 4 if tiny else 12)
        while atilde.degree() != m - 3:
            atilde = self._poly(n + 1, m - 3, 4 if tiny else 12)
        js = ["--format", "json"]
        return [
            Command(["construct", "linear-fi", f"--a0={a0}",
                     "--a=" + ",".join(str(x) for x in a), "--seed", seed_path] + js, 0,
                    check=_conserves_plane(ks.HyperplaneSpec.from_values(a0, a))),
            Command(["construct", "complete", "--n", str(n), "--m", str(m),
                     f"--atilde={atilde}"] + js, 0, check=_complete(n)),
            Command(["hamiltonian", "--constraint-space", "--n",
                     "2" if tiny else "3"] + js, 0),
        ]

    def _integrate_command(self, steps) -> List[Command]:
        x0 = ",".join(repr(round(self.rng.uniform(0.3, 0.9), 6)) for _ in range(3))
        dump = str(self.workdir / "trajectory.csv")
        argv = ["integrate", "--field", str(FIXTURES / "demo3d_field.json"),
                "--x0", x0, "--h", "0.001", "--steps", str(steps),
                "--watch", sphere_text(3), "--dump", dump, "--format", "json"]
        return [Command(argv, 0, check=_dump_matches(dump, steps))]

    def prepare(self):
        items = []
        for cmd in self.commands:
            expected = (GOLDEN / cmd.golden).read_text() if cmd.golden else None
            label = " ".join(Path(a).name if "/" in a else a for a in cmd.argv)
            items.append(Item(label, _cli_call(cmd.argv), _cli_check(cmd, expected)))
        return items

    def finish(self):
        failures = []
        for p, d in self.large_polys:
            if ks.parse(str(p), d) != p:
                failures.append(f"parse(str(p)) != p for a {len(p)}-term input")
        return failures


def _cli_call(argv):
    return lambda: run_cli(argv)


def _cli_check(cmd: Command, expected: Optional[str]):
    def check(result) -> Optional[str]:
        code, out, err = result
        if code != cmd.code:
            return f"{cmd.argv[0]}: exit {code}, expected {cmd.code}: {err.strip()}"
        if expected is not None and out != expected:
            return f"{cmd.argv[0]}: output differs from golden {cmd.golden}"
        if cmd.check is not None:
            return cmd.check(out)
        return None
    return check


def _json_poly(key: str, expected):
    def check(out: str) -> Optional[str]:
        text = json.loads(out)[key]
        if ks.parse(text, expected.dim) != expected:
            return f"{key} {text[:60]}... differs from the assembly prediction"
        return None
    return check


def _divergence(vf) -> "ks.Poly":
    total = ks.Poly.zero(vf.dim)
    for i, p in enumerate(vf.components, start=1):
        total = total + p.differentiate(i)
    return total


def _has_integrals(out: str) -> Optional[str]:
    return None if json.loads(out)["integrals"] else "no integral emitted"


def _conserves_plane(hp):
    def check(out: str) -> Optional[str]:
        payload = json.loads(out)
        vf = ks.PolyVectorField(payload["dim"], tuple(
            ks.parse(text, payload["dim"]) for text in payload["components"]))
        if not ks.lie_derivative(vf, hp.defining_poly()).is_zero():
            return "constructed field does not conserve the plane"
        return None
    return check


def _complete(n: int):
    def check(out: str) -> Optional[str]:
        payload = json.loads(out)
        if payload["jacobian_rank"] != n or len(payload["integrals"]) != n:
            return f"complete construction: rank {payload['jacobian_rank']}"
        return None
    return check


def _dump_matches(path: str, steps: int):
    def check(out: str) -> Optional[str]:
        payload = json.loads(out)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if len(lines) != steps + 2 or not lines[0].startswith("t,x1"):
            return f"dump has {len(lines)} lines, expected {steps + 2}"
        last = [float(v) for v in lines[-1].split(",")[1:]]
        if last != payload["x_final"]:
            return "dump's last row differs from x_final"
        drift = payload["watch"][0]["max_abs_drift"]
        if not 0.0 <= drift < float("inf"):
            return f"watched value moved by {drift}"
        return None
    return check


# ----- elimination ---------------------------------------------------------------


class Elimination(Workload):
    """Hamiltonian constraint spaces, sample-grid determinants, and the
    Darboux searches on a seeded batch of cubic forms with the unit sphere
    as the extra surface."""

    name = "elimination"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        rng = random.Random(f"elimination/{seed}")
        self.max_space = 2 if tiny else 5
        self.max_det = 4 if tiny else 20
        count = 3 if tiny else 4
        self.forms = []
        for k in range(count):
            d = 3 + k % 4
            kind = ("paired", "uniform", "random")[k % 3]
            if kind == "paired":
                form = paired_cubic_form(rng, d)[0]
            elif kind == "uniform":
                form = uniform_cubic_form(rng, d)
            else:
                form = ks.CubicKolmogorovForm.from_values(
                    [rand_fraction(rng) for _ in range(d)], rand_skew(rng, d))
            self.forms.append((kind, form))

    def prepare(self):
        items = []
        for n in range(1, self.max_space + 1):
            items.append(Item(f"constraint n={n}", _constraint_call(n),
                              _constraint_check(n)))
        for n in range(1, self.max_det + 1):
            items.append(Item(f"cor44 n={n}", _det_call(n), _det_check(n)))
        for kind, form in self.forms:
            sphere = ks.Hypersurface(ks.sphere_polynomial(form.dim))
            label = f"{kind} d={form.dim}"
            items += [
                Item(f"find_darboux {label}",
                     _call(ks.darboux, "find_darboux", form, sphere),
                     _integrals_check(form, kind == "random")),
                Item(f"syzygy {label}",
                     _call(ks.darboux, "syzygy_first_integral", form),
                     _integrals_check(form, kind == "random")),
                Item(f"complete {label}",
                     _call(ks.darboux, "complete_integrability_check", form, sphere),
                     _certificate_check(form, kind == "uniform")),
            ]
        return items


def _call(module, name: str, *args):
    return lambda: getattr(module, name)(*args)


def _constraint_call(n: int):
    return lambda: ks.hamiltonian.hamiltonian_constraint_space(n)


def _parameter_form(n: int, values):
    """alpha_1..alpha_2n, then atilde_ij for i < j row-major, as documented
    for ``hamiltonian_constraint_space``."""
    d = 2 * n
    atilde = [[Fraction(0)] * d for _ in range(d)]
    pos = d
    for i in range(d):
        for j in range(i + 1, d):
            atilde[i][j], atilde[j][i] = values[pos], -values[pos]
            pos += 1
    return ks.CubicKolmogorovForm.from_values(values[:d], atilde)


def _constraint_check(n: int):
    def check(result) -> Optional[str]:
        dimension, basis = result
        if dimension != (1 if n == 1 else 0) or len(basis) != dimension:
            return f"constraint space n={n}: dimension {dimension}"
        for vec in basis:
            field = ks.assemble_cubic(_parameter_form(n, list(vec)))
            if not ks.is_hamiltonian(field).is_hamiltonian:
                return f"constraint space n={n}: basis field not Hamiltonian"
        return None
    return check


def _det_call(n: int):
    def run():
        d = n + 1
        matrix = ks.darboux.hypothesis_matrix(
            ks.field_forms.sphere_polynomial(d), d,
            ks.darboux.standard_sample_points(d))
        return ks.exactla.determinant(matrix)
    return run


def _det_check(n: int):
    expected = Fraction(-(6**n) * (n + 3))
    return lambda det: None if det == expected else f"cor44 n={n}: det {det}"


def _verified(form, integrals) -> Optional[str]:
    field = ks.assemble_cubic(form)
    for integral in integrals:
        if not ks.verify_first_integral(field, integral):
            return f"integral {integral.exponents} fails verification"
    return None


def _integrals_check(form, may_be_empty: bool):
    def check(integrals) -> Optional[str]:
        if not integrals and not may_be_empty:
            return "no integral for a form built to have one"
        return _verified(form, integrals)
    return check


def _certificate_check(form, integrable: bool):
    def check(cert) -> Optional[str]:
        if integrable and not cert.completely_integrable:
            return f"rank {cert.rank_b} for a form with one shared cofactor"
        return _verified(form, cert.integrals)
    return check


# ----- rk4_drift -------------------------------------------------------------------


class Rk4Drift(Workload):
    """The integrable family of criteria 7/9 and the fixture field, each from
    seeded start points in [0.3, 0.9]^d at h = 1e-3 and h = 5e-4, each
    trajectory followed by one conservation report per certified integral.
    The fixture also runs from the criterion-9 point (0.5, 0.5, 0.5) over
    T = 10, where one surface decays below the evaluation floor."""

    name = "rk4_drift"
    STEP_SIZES = (1e-3, 5e-4)
    DRIFT_BUDGET = 1e-6

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        rng = random.Random(f"rk4_drift/{seed}")
        self.family = [(1, 3), (2, 4)] if tiny else [
            (n, m) for n in range(1, 5) for m in range(3, 7)]
        self.points_per_field = 1 if tiny else 3
        self.horizon = 0.1 if tiny else 1.0
        self.long_horizon = 1.0 if tiny else 10.0
        self.points = {
            key: [tuple(rng.uniform(0.3, 0.9) for _ in range(key[0] + 1))
                  for _ in range(self.points_per_field)]
            for key in self.family
        }
        self.fixture_points = [tuple(rng.uniform(0.3, 0.9) for _ in range(3))
                               for _ in range(self.points_per_field)]
        self.digests: Dict[str, str] = {}

    def prepare(self):
        cases = []
        for n, m in self.family:
            d = n + 1
            interaction = (ks.Poly.const(d, 1) if m == 3
                           else ks.Poly.var(d, 1) ** (m - 3))
            field, cert = ks.construct_completely_integrable(n, m, interaction)
            zero_drift = [
                len(i.surfaces) == 1 and i.surfaces[0].defining.degree() == 1
                for i in cert.integrals
            ]
            for x0 in self.points[(n, m)]:
                cases.append((f"n={n} m={m}", field, cert.integrals, x0,
                              self.horizon, zero_drift))
        with open(FIXTURES / "demo3d_field.json", encoding="utf-8") as handle:
            fixture = ks.field_from_dict(json.load(handle))
        integrals = ks.find_darboux(
            ks.recover_cubic_form(fixture),
            ks.Hypersurface(ks.sphere_polynomial(3)))
        monomial = [all(s.defining.degree() == 1 for s in i.surfaces)
                    for i in integrals]
        for x0 in self.fixture_points:
            cases.append(("fixture", fixture, integrals, x0, self.horizon,
                          [False] * len(integrals)))
        # From the diagonal point x1 = x3 for all time, so the monomial
        # integral x1/x3 is conserved bit for bit.
        cases.append(("fixture criterion 9", fixture, integrals,
                      (0.5, 0.5, 0.5), self.long_horizon, monomial))
        items = []
        for label, field, integrals, x0, horizon, zero in cases:
            for h in self.STEP_SIZES:
                steps = int(round(horizon / h))
                key = f"{label} x0={x0} h={h}"
                items.append(Item(key, _trajectory_call(field, integrals, x0, h, steps),
                                  self._trajectory_check(key, zero)))
        return items

    def _trajectory_check(self, key: str, zero_drift: List[bool]):
        def check(result) -> Optional[str]:
            traj, drifts = result
            digest = hashlib.sha256(traj.states.tobytes()).hexdigest()
            digest += repr(drifts)
            if self.digests.setdefault(key, digest) != digest:
                return "trajectory differs from the first pass"
            for drift, zero in zip(drifts, zero_drift):
                if drift is None:
                    continue  # a domain exit: expected, counted by the tracer
                if zero and drift != 0.0:
                    return f"monomial integral drifted by {drift!r}"
                if not drift < self.DRIFT_BUDGET:
                    return f"drift {drift:.3e} over the budget"
            return None
        return check


def _trajectory_call(field, integrals, x0, h, steps):
    def run():
        traj = ks.numeric_validate.integrate_rk4(field, x0, h, steps)
        drifts = []
        for integral in integrals:
            try:
                drifts.append(ks.numeric_validate.conservation_report(traj, integral))
            except ks.DomainViolationError:
                drifts.append(None)
        return traj, drifts
    return run


WORKLOADS = {
    cls.name: cls for cls in (CertifySmall, CliFields, Elimination, Rk4Drift)
}
