"""Lowest eigenvalue branch of a family of twisted Laplacians.

The model is parametrized by a genus g ≥ 2, a rank d, and a symmetric
positive-definite Gram matrix G of pairings of a harmonic-form basis.  The
branch is the quadratic form

    λ₀(ω) = (π/(g−1)) ωᵀ G ω  +  p(ω),

where p is an optional perturbation, a homogeneous quartic
p(r·ω) = r⁴·p(ω), so the Hessian of λ₀ at the origin is exactly
(2π/(g−1)) G.  The branch must stay inside [0, 1/4) on its working box U;
the Casimir parameter ν = √(1−4λ) then lies in (0, 1] and the mixing
Hessian 2 D²λ₀(0) = (4π/(g−1)) G is positive definite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._stencils import _accumulate, columns, quadratic_form, sweep_grid, tensor_grid
from .errors import ConfigError, DomainError, ModelValidityError

LAMBDA_MAX = 0.25


def nu_of_lambda(lam: float) -> float:
    """Casimir parameter ν = √(1 − 4λ) on the branch 0 ≤ λ < 1/4."""
    if not 0.0 <= lam < LAMBDA_MAX:
        raise DomainError(f"lambda must lie in [0, 1/4), got {lam}")
    return math.sqrt(1.0 - 4.0 * lam)


def lambda_of_nu(nu: float) -> float:
    """Inverse map λ(ν) = (1 − ν²)/4 for ν in (0, 1]."""
    if not 0.0 < nu <= 1.0:
        raise DomainError(f"nu must lie in (0, 1], got {nu}")
    return (1.0 - nu * nu) / 4.0


class Perturbation:
    """Named perturbation added to the quadratic eigenvalue model.

    Presets:
      quartic        coeff * sum_i ω_i⁴
      radial_quartic coeff * q(ω)² with q the model's quadratic part
    Both vanish to second order at 0, and both are homogeneous quartics,
    p(r·ω) = r⁴·p(ω): along every ray λ₀(r·e) = Q(e)·r² + p(e)·r⁴, which
    the limit density of ``cover_spectrum`` solves in closed form.  A new
    preset must be a homogeneous quartic too, which
    :meth:`SpectralModel.validate` checks.  ``radial_quartic`` keeps the
    model in the radial Morse class, which downstream density and
    expansion code can exploit exactly.  Both are plain IEEE products and
    sums, with no ``pow``: the bits are the same on every host, and on ω
    and −ω.
    A new preset must be even in that sense too, p(−ω) = p(ω) bit for
    bit: the lattice sweep evaluates one member of each ±ω pair and counts
    it twice.
    """

    PRESETS = ("quartic", "radial_quartic")

    def __init__(self, name: str, coeff: float):
        if name not in self.PRESETS:
            raise ConfigError(f"unknown perturbation preset {name!r}")
        self.name = name
        self.coeff = float(coeff)
        if not math.isfinite(self.coeff):
            raise ConfigError(f"perturbation coeff must be finite, got {self.coeff}")

    def __call__(self, coords, quad_form: np.ndarray) -> np.ndarray:
        """p at the points whose d coordinates are the arrays ``coords``, which
        broadcast against each other as in :func:`_stencils.quadratic_form`;
        ``quad_form`` holds q(ω) at the same points.  ``quartic`` squares each
        coordinate array on its own axes, then adds ω₁⁴ + ω₂⁴ + ⋯ in order,
        so a point has the same bits in a column array and in an open mesh."""
        if self.name == "quartic":
            shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
            total = None
            for c in coords:
                sq = c * c
                sq *= sq
                total = _accumulate(total, sq, shape)
        else:
            total = quad_form * quad_form
        total *= self.coeff
        return total

    def to_json(self) -> dict:
        return {"name": self.name, "params": {"coeff": self.coeff}}

    @classmethod
    def from_json(cls, doc: dict) -> "Perturbation":
        try:
            return cls(doc["name"], doc["params"]["coeff"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad perturbation document: {doc!r}") from exc


def _default_domain(genus: int, gram: np.ndarray) -> np.ndarray:
    """Largest centered box on which the quadratic part stays below 1/4,
    shrunk by a 10% margin and capped at the torus half-width 1/2."""
    d = gram.shape[0]
    coeff = math.pi / (genus - 1)
    if d <= 16:
        # The quadratic form is convex: its max over the box sits at a vertex.
        vertices = tensor_grid([(-1.0, 1.0)] * d)
        m = np.max(((vertices @ gram) * vertices).sum(1))
    else:
        m = float(np.linalg.eigvalsh(gram)[-1]) * d
    u = 0.9 * math.sqrt(LAMBDA_MAX / (coeff * m))
    return np.full(d, min(u, 0.5))


@dataclass(frozen=True)
class SpectralModel:
    """Immutable eigenvalue-branch model; all operations are pure."""

    genus: int
    rank_d: int
    gram: np.ndarray
    perturbation: Perturbation | None = None
    gap_delta: float = 0.2
    domain_u: np.ndarray = field(default=None)  # box half-widths

    def __post_init__(self):
        gram = np.atleast_2d(np.asarray(self.gram, dtype=float))
        object.__setattr__(self, "gram", gram)
        self._check_structure()
        if self.domain_u is None:
            object.__setattr__(self, "domain_u", _default_domain(self.genus, gram))
        else:
            object.__setattr__(
                self, "domain_u", np.asarray(self.domain_u, dtype=float)
            )
        u = self.domain_u
        if u.shape != (self.rank_d,) or not np.all((0.0 < u) & (u < math.inf)):
            raise ModelValidityError("domain_u must be finite positive half-widths")
        gram.setflags(write=False)
        self.domain_u.setflags(write=False)

    # -- structure ---------------------------------------------------------

    def _check_structure(self):
        if self.genus < 2:
            raise ModelValidityError(f"genus must be >= 2, got {self.genus}")
        if not 1 <= self.rank_d <= 2 * self.genus:
            raise ModelValidityError(
                f"rank_d must lie in [1, {2 * self.genus}], got {self.rank_d}"
            )
        if self.gram.shape != (self.rank_d, self.rank_d):
            raise ModelValidityError(
                f"gram must be {self.rank_d}x{self.rank_d}, got {self.gram.shape}"
            )
        if not np.all(np.isfinite(self.gram)):
            raise ModelValidityError("gram entries must be finite")
        if not np.allclose(self.gram, self.gram.T, rtol=0, atol=1e-12):
            raise ModelValidityError("gram not symmetric")
        if np.linalg.eigvalsh(self.gram)[0] <= 0:
            raise ModelValidityError("gram not positive definite")
        if not 0.0 < self.gap_delta < math.inf:
            raise ModelValidityError("gap_delta must be finite and positive")

    @property
    def quad_coeff(self) -> float:
        """Coefficient π/(g−1) of the quadratic form ωᵀGω in λ₀."""
        return math.pi / (self.genus - 1)

    # -- evaluation --------------------------------------------------------

    def quadratic_part(self, coords) -> np.ndarray:
        """q(ω) = (π/(g−1))·ωᵀGω at the points whose d coordinates are the
        arrays ``coords`` (:func:`_stencils.quadratic_form`)."""
        q = quadratic_form(coords, self.gram)
        q *= self.quad_coeff
        return q

    def lambda0_mesh(self, coords) -> np.ndarray:
        """λ₀ at the points whose d coordinates are the arrays ``coords``,
        which broadcast against each other: the columns of a point array, or
        an open mesh, on which every per-coordinate step runs once per axis
        value and only the sums run once per point.  The operations and
        their order do not depend on the form, so a point has the same bits
        in both.  This is the one evaluator of λ₀; see :meth:`lambda0_batch`.
        """
        q = self.quadratic_part(coords)
        if self.perturbation is None:
            return q
        total = self.perturbation(coords, q)
        total += q
        return total

    def lambda0_batch(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate the branch formula on arbitrary torus points, an
        (..., d) array: :meth:`lambda0_mesh` on its columns
        (:func:`_stencils.columns`).

        No domain checks: the analytic formula extends to the whole torus,
        which the lattice sweeps rely on.  Scalar entry points that promise
        λ₀ < 1/4 must go through :meth:`lambda0`.  Only IEEE products and
        sums in a fixed order (no ``pow``), so the bits do not depend on the
        host's SIMD width, and λ₀(−ω) = λ₀(ω) exactly.  The cone rule and
        the validation sweep call this; the lattice sweep calls
        :meth:`lambda0_mesh` on open meshes.
        """
        return self.lambda0_mesh(columns(pts))

    def lambda0(self, omega) -> float:
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        if omega.shape != (self.rank_d,):
            raise DomainError(f"omega must have {self.rank_d} components")
        if np.any(np.abs(omega) > self.domain_u + 1e-15):
            raise DomainError(f"omega {omega} outside the working box U")
        val = float(self.lambda0_batch(omega))
        if val >= LAMBDA_MAX:
            raise ModelValidityError(
                f"lambda0({omega}) = {val} >= 1/4; model invalid on U"
            )
        return val

    def hessian_lambda0(self) -> np.ndarray:
        """D²λ₀(0) = (2π/(g−1)) G, exact for admissible perturbations."""
        return (2.0 * math.pi / (self.genus - 1)) * self.gram

    def radial_profile(self) -> float | None:
        """The coefficient c with λ₀ = q + c·q², q the quadratic part, or
        None when λ₀ is not a function of q alone.

        This covers the unperturbed model (c = 0), the radial quartic
        (c = coeff) and the rank-1 quartic, where q = qc·g·ω² turns
        coeff·ω⁴ into (coeff/(qc·g)²)·q².
        """
        pert = self.perturbation
        if pert is None:
            return 0.0
        if pert.name == "radial_quartic":
            return pert.coeff
        if pert.name == "quartic" and self.rank_d == 1:
            return pert.coeff / (self.quad_coeff * self.gram[0, 0]) ** 2
        return None

    def mixing_hessian(self) -> np.ndarray:
        """Hessian 2 D²λ₀(0) of the mixing exponent 1 − ν₀ at the origin."""
        return 2.0 * self.hessian_lambda0()

    def sigma_constant(self) -> float:
        """σ = det(G)^{−1/2}.

        This is the unique normalization for which the two closed forms of
        the leading mixing coefficient, ((g−1)/2)^{d/2} σ and
        (2π)^{d/2}/√det(2 D²λ₀(0)), agree identically.
        """
        return 1.0 / math.sqrt(float(np.linalg.det(self.gram)))

    # -- validation battery -------------------------------------------------

    def validate(self) -> None:
        """Run the runtime invariants: positivity sweep, sub-1/4 sweep, and
        p(2ω) = 16·p(ω) for the perturbation.

        The sweeps take 11 points per axis of U while the budget of
        :func:`horomix._stencils.sweep_grid` allows (d ≤ 5), fewer above;
        rank 20 and more raises LatticeSizeError.  The doubling check runs
        on ``sweep_grid(ones(d), 3)``, the points of the unit cube, since
        homogeneity does not depend on the box: the Hessian identity needs
        p to vanish to second order, and the limit density needs it to be a
        homogeneous quartic.  Doubling a point is exact, so both sides have
        the same bits where no value is subnormal; the check allows the 16
        units of the smallest subnormal that rounding such values costs.
        """
        mesh = sweep_grid(self.domain_u, 11)
        vals = self.lambda0_batch(mesh)
        nonzero = np.any(mesh != 0.0, axis=1)
        if np.any(vals[nonzero] <= 0.0):
            raise ModelValidityError("positivity sweep failed: lambda0 <= 0 off 0")
        if np.any(vals >= LAMBDA_MAX):
            raise ModelValidityError("sweep failed: lambda0 >= 1/4 inside U")
        if self.perturbation is not None:
            cols = columns(sweep_grid(np.ones(self.rank_d), 3))
            p = self.perturbation(cols, self.quadratic_part(cols))
            cols = [2.0 * c for c in cols]
            doubled = self.perturbation(cols, self.quadratic_part(cols))
            slack = 16.0 * np.finfo(float).smallest_subnormal
            if np.any(np.abs(doubled - 16.0 * p) > slack):
                raise ModelValidityError(
                    "perturbation is not a homogeneous quartic: p(2w) != 16 p(w)"
                )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "genus": self.genus,
            "rank_d": self.rank_d,
            "gram": [float(x) for x in self.gram.reshape(-1)],
            "perturbation": None
            if self.perturbation is None
            else self.perturbation.to_json(),
            "gap_delta": self.gap_delta,
            "domain_u": [float(x) for x in self.domain_u],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SpectralModel":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model file is not valid JSON: {exc}") from exc
        try:
            d = int(doc["rank_d"])
            gram = np.asarray(doc["gram"], dtype=float).reshape(d, d)
            pert = doc.get("perturbation")
            model = cls(
                genus=int(doc["genus"]),
                rank_d=d,
                gram=gram,
                perturbation=None if pert is None else Perturbation.from_json(pert),
                gap_delta=float(doc.get("gap_delta", 0.2)),
                domain_u=doc.get("domain_u"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad model document: {exc}") from exc
        return model
