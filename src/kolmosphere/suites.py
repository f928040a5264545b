"""Randomized and exhaustive certification suites.

Each suite builds instances from a seeded generator, runs the relevant
decision procedures, and collects per-instance failure descriptions, so a
run is reproducible from (seed, instances) alone.  The CLI exposes these
through ``certify``; the acceptance tests call them directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .polyring import Poly, SelfCheckError
from .exactla import determinant
from .field_forms import (
    CubicKolmogorovForm,
    KolmogorovForm,
    PolyVectorField,
    assemble_cubic,
    construct_from_form,
    is_kolmogorov_on_sphere,
    recover_cubic_form,
    skew_matrix,
    sphere_polynomial,
)
from .invariance import (
    HyperplaneSpec,
    classify_hyperplane,
    cone_invariance,
    second_sphere_check,
)
from .darboux import hypothesis_matrix, standard_sample_points
from .hamiltonian import hamiltonian_constraint_space


@dataclass
class SuiteReport:
    name: str
    instances: int
    lines: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


# ----- random generators -----------------------------------------------------


def _rand_fraction(rng: random.Random, allow_zero: bool = True) -> Fraction:
    num = rng.randint(-3, 3)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-3, 3)
    return Fraction(num, rng.randint(1, 2))


def _rand_poly(
    rng: random.Random, dim: int, max_degree: int, homogeneous: bool = False
) -> Poly:
    """Up to three terms of degree at most ``max_degree``, or, when
    ``homogeneous``, one or two of degree exactly ``max_degree``."""
    terms = {}
    for _ in range(rng.randint(1, 2) if homogeneous else rng.randint(0, 3)):
        exps = [0] * dim
        for _ in range(max_degree if homogeneous else rng.randint(0, max_degree)):
            exps[rng.randrange(dim)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + _rand_fraction(rng)
    return Poly(dim, terms)


def _rand_skew_const(rng: random.Random, dim: int):
    return skew_matrix(dim, lambda i, j: _rand_fraction(rng), Fraction(0))


# ----- suite: assembly round trip -------------------------------------------


def roundtrip_suite(seed: int = 0, *, instances: int) -> SuiteReport:
    """Random (ftilde, atilde) data assembles to a field that passes the
    membership test with sphere cofactor -2 sum ftilde_i x_i^2; constant
    (cubic) instances also round-trip through form recovery."""
    rng = random.Random(seed)
    report = SuiteReport("roundtrip", instances)
    for idx in range(instances):
        dim = rng.randint(2, 5)
        m = rng.randint(3, 6)
        cubic = m == 3 or rng.random() < 0.25
        # ftilde holds rationals or polynomials alike, as the assembly does.
        if cubic:
            alpha = [_rand_fraction(rng) for _ in range(dim)]
            form_c = CubicKolmogorovForm.from_values(alpha, _rand_skew_const(rng, dim))
            ftilde = form_c.alpha
            vf = assemble_cubic(form_c)
        else:
            form = KolmogorovForm(
                dim,
                tuple(_rand_poly(rng, dim, m - 3) for _ in range(dim)),
                skew_matrix(dim, lambda i, j: _rand_poly(rng, dim, m - 3),
                            Poly.zero(dim)),
            )
            ftilde = form.ftilde
            vf = construct_from_form(form)
        rep = is_kolmogorov_on_sphere(vf)
        if not rep.passes:
            report.failures.append(f"instance {idx}: membership test failed")
            continue
        predicted = Poly.sum(
            dim,
            (-(2 * ftilde[i] * Poly.var(dim, i + 1) ** 2) for i in range(dim)),
        )
        if rep.sphere_cofactor != predicted:
            report.failures.append(
                f"instance {idx}: cofactor {rep.sphere_cofactor} != {predicted}"
            )
            continue
        if cubic:
            recovered = recover_cubic_form(vf)
            if recovered != form_c:
                report.failures.append(
                    f"instance {idx}: cubic recovery mismatch"
                )
    report.lines.append(
        f"{instances} assembly round trips, {len(report.failures)} failures"
    )
    return report


# ----- suite: hyperplane conditions ------------------------------------------


def _case_offset_instance(rng: random.Random, dim: int):
    support = sorted(rng.sample(range(dim), rng.randint(1, dim)))
    a = [Fraction(0)] * dim
    for i in support:
        a[i] = _rand_fraction(rng, allow_zero=False)
    alpha = [
        Fraction(0) if i in support else _rand_fraction(rng)
        for i in range(dim)
    ]
    atilde = skew_matrix(
        dim,
        lambda i, j: (
            Fraction(0) if i in support or j in support else _rand_fraction(rng)
        ),
        Fraction(0),
    )
    form = CubicKolmogorovForm.from_values(alpha, atilde)
    hp = HyperplaneSpec.from_values(_rand_fraction(rng, allow_zero=False), a)
    return form, hp, support


def _case_origin_instance(rng: random.Random, dim: int):
    support = sorted(rng.sample(range(dim), rng.randint(2, dim)))
    a = [Fraction(0)] * dim
    for i in support:
        a[i] = _rand_fraction(rng, allow_zero=False)
    k0 = _rand_fraction(rng)
    alpha = [
        k0 if i in support else _rand_fraction(rng) for i in range(dim)
    ]
    outside = [i for i in range(dim) if i not in support]
    template = {j: _rand_fraction(rng) for j in outside}

    def entry(i: int, j: int) -> Fraction:
        if i in support:
            return template[j] if j in outside else Fraction(0)
        return -template[i] if j in support else _rand_fraction(rng)

    atilde = skew_matrix(dim, entry, Fraction(0))
    form = CubicKolmogorovForm.from_values(alpha, atilde)
    hp = HyperplaneSpec.from_values(0, a)
    return form, hp, support, outside


def _perturb(form: CubicKolmogorovForm, rng: random.Random,
             support: List[int], outside: List[int]) -> CubicKolmogorovForm:
    alpha = list(form.alpha)
    atilde = [list(row) for row in form.atilde]
    if len(support) >= 2:
        moves = ["alpha", "pair"] + (["row"] if outside else [])
    else:
        moves = ["row_offset"]
    move = rng.choice(moves)
    i = support[0]
    if move == "alpha":
        alpha[i] += 1
    else:
        if move == "pair":
            j = support[1]
        elif move == "row":
            j = outside[0]
        else:  # offset case: any nonzero entry in a supported row
            j = (i + 1) % form.dim
        atilde[i][j] += 1
        atilde[j][i] -= 1
    return CubicKolmogorovForm.from_values(alpha, atilde)


def hyperplane_suite(seed: int = 0, *, instances: int) -> SuiteReport:
    """Instances meeting the coefficient conditions are invariant with the
    predicted structured cofactor (cross-validated against division inside
    the classifier); breaking a single condition defeats invariance."""
    rng = random.Random(seed)
    report = SuiteReport("hyperplane-conditions", instances)
    for idx in range(instances):
        dim = rng.randint(3, 5)
        offset_case = rng.random() < 0.5
        if offset_case:
            form, hp, support = _case_offset_instance(rng, dim)
            outside: List[int] = []
            expected_case = "nonzero_offset"
        else:
            form, hp, support, outside = _case_origin_instance(rng, dim)
            expected_case = "through_origin"
        try:
            verdict = classify_hyperplane(form, hp)
        except SelfCheckError as err:
            report.failures.append(f"instance {idx}: cross-check blew up: {err}")
            continue
        if not verdict.invariant or verdict.case != expected_case:
            report.failures.append(
                f"instance {idx}: expected invariant {expected_case}, "
                f"got {verdict}"
            )
            continue
        perturbed = _perturb(form, rng, support, outside)
        try:
            verdict2 = classify_hyperplane(perturbed, hp)
        except SelfCheckError as err:
            report.failures.append(
                f"instance {idx}: perturbed cross-check blew up: {err}"
            )
            continue
        if verdict2.invariant:
            report.failures.append(
                f"instance {idx}: perturbation left the plane invariant"
            )
    report.lines.append(
        f"{instances} condition instances with perturbations, "
        f"{len(report.failures)} failures"
    )
    return report


# ----- suite: no Hamiltonian constant-form fields ----------------------------


def hamiltonian_suite(seed: int = 0, *, instances: int) -> SuiteReport:
    """The constraint space of Hamiltonian constant-form fields must be
    trivial for n = 1..instances (fields on R^2, R^4, ...; n = 1, 2, 3 by
    default).

    Note: the n = 1 case reports dimension 1.  On R^2 the symmetry
    condition degenerates to zero divergence, and the one-parameter family
    alpha = (t, -t), atilde_12 = -2t consists of genuinely Hamiltonian
    fields (H = x1 x2 (x1^2 + x2^2 - 1) at t = 1), so a zero-dimensional
    answer is not mathematically attainable there.  The suite still demands
    dimension 0 for every n and reports the n = 1 case as a failure rather
    than hiding it.
    """
    report = SuiteReport("hamiltonian-space", instances)
    for n in range(1, instances + 1):
        dimension, basis = hamiltonian_constraint_space(n)
        line = f"n={n}: constraint space dimension {dimension}"
        report.lines.append(line)
        if dimension != 0:
            vectors = "; ".join(
                "(" + ", ".join(str(v) for v in vec) + ")" for vec in basis
            )
            report.failures.append(
                f"n={n}: dimension {dimension}, basis {vectors}"
            )
    return report


# ----- suite: sample determinants --------------------------------------------


def sample_determinant_suite(seed: int = 0, *, instances: int) -> SuiteReport:
    """For the unit sphere and the standard sample points, the independence
    matrix that omits the last coordinate has determinant -6^n (n+3)."""
    report = SuiteReport("sample-determinants", instances)
    for n in range(1, instances + 1):
        d = n + 1
        g = sphere_polynomial(d)
        matrix = hypothesis_matrix(g, d, standard_sample_points(d))
        det = determinant(matrix)
        expected = Fraction(-(6**n) * (n + 3))
        report.lines.append(f"n={n}: det {det} (expected {expected})")
        if det != expected:
            report.failures.append(f"n={n}: det {det} != {expected}")
    return report


# ----- suite: slices and second spheres never invariant ----------------------


def _rand_strict_homogeneous_field(
    rng: random.Random, dim: int, m: int
) -> PolyVectorField:
    """Homogeneous degree-m field from skew data, with a nonzero last
    component so the last coordinate is not trivially conserved."""
    zero = Poly.zero(dim)
    while True:
        atilde = skew_matrix(
            dim,
            lambda i, j: (
                zero if rng.random() < 0.3
                else _rand_poly(rng, dim, m - 3, homogeneous=True)
            ),
            zero,
        )
        form = KolmogorovForm(dim, (zero,) * dim, atilde)
        vf = construct_from_form(form)
        if not vf.components[dim - 1].is_zero():
            return vf


def slice_negative_suite(seed: int = 0, *, instances: int) -> SuiteReport:
    """Homogeneous degree 3-4 fields on the 2-sphere never leave a slice
    {x3 = d}, d != 0, invariant (tested through the cone equivalence), and
    no constant-form field with alpha != 0 leaves a second sphere of
    radius 2 invariant."""
    rng = random.Random(seed)
    report = SuiteReport("slice-negatives", instances)
    offsets = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    hp = HyperplaneSpec.from_values(0, [0, 0, 1])
    for idx in range(instances):
        vf = _rand_strict_homogeneous_field(rng, 3, rng.choice((3, 4)))
        for d in offsets:
            outcome = cone_invariance(vf, hp, d)
            if outcome.invariant:
                report.failures.append(
                    f"instance {idx}: slice d={d} invariant for "
                    f"{[str(p) for p in vf.components]}"
                )
    for idx in range(instances):
        dim = rng.randint(2, 4)
        alpha = [_rand_fraction(rng) for _ in range(dim)]
        if all(a == 0 for a in alpha):
            alpha[rng.randrange(dim)] = _rand_fraction(rng, allow_zero=False)
        form = CubicKolmogorovForm.from_values(
            alpha, _rand_skew_const(rng, dim)
        )
        if second_sphere_check(form, Fraction(2)) is not None:
            report.failures.append(
                f"instance {idx}: second sphere invariant with alpha={alpha}"
            )
    report.lines.append(
        f"{instances} slice instances x 3 offsets and {instances} "
        f"second-sphere instances, {len(report.failures)} failures"
    )
    return report


SUITES: Dict[str, Callable[..., SuiteReport]] = {
    "roundtrip": roundtrip_suite,
    "thm41": hyperplane_suite,
    "thm13": hamiltonian_suite,
    "cor44": sample_determinant_suite,
    "thm37": slice_negative_suite,
}

# The one source of each suite's default size.
DEFAULT_INSTANCES: Dict[str, int] = {
    "roundtrip": 200,
    "thm41": 200,
    "thm13": 3,
    "cor44": 6,
    "thm37": 100,
}


def run_suite(name: str, seed: int = 0, instances: Optional[int] = None) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    count = DEFAULT_INSTANCES[name] if instances is None else instances
    if count < 0:
        raise ValueError(f"need instances >= 0, got {count}")
    return SUITES[name](seed=seed, instances=count)
