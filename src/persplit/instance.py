"""The engine's central input value: a graded rational space with an
increasing filtration and a degree-2 operator, plus optional Hodge
bigrading and intersection pairing."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

from .errors import InputError
from .graded import Filtration, GradedMap, GradedSpace, graded_pieces, memoized
from .linalg import Matrix, Subspace, kernel


@dataclass(frozen=True)
class PerverseLefschetzInstance:
    center: int
    space: GradedSpace
    filtration: Filtration
    eta: GradedMap
    hodge: "object | None" = None      # hodge.HodgeBigrading
    pairing: "object | None" = None    # duality.IntersectionPairing
    groups: "dict | None" = None       # name -> tuple of degree-0 GradedMaps
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.eta.shift != 2:
            raise InputError(f"operator has degree {self.eta.shift}, expected 2")
        if self.filtration.space != self.space:
            raise InputError("filtration is not over the instance's graded space")

    @property
    def filtration_report(self):
        return self.filtration.report

    @property
    def amplitude(self):
        return self.filtration_report.amplitude

    @cached_property
    def pieces(self):
        return graded_pieces(self.filtration, self.eta)

    def cut_rows(self, d, s, level) -> Matrix:
        """Rows R with {v ∈ V^d : η^s v ∈ W_{≤level}V^{d+2s}} = {v : R·v = 0}:
        ann(W_{≤level}V^{d+2s})·η^s, or η^s when that step is 0, and no
        rows when the step is full or the product is zero.  The rows are
        not reduced: only the kernels they cut must be canonical.  The
        schedule, its containment checks and the direct characterization
        read these rows."""
        def compute():
            target = self.filtration.at(d + 2 * s, level)
            if target.is_full():
                return Matrix.zero(0, self.space.dim(d))
            rows = self.eta.power_block(d, s)
            if not target.is_zero():
                # one annihilator per distinct step, shared by every (d, s)
                ann = memoized(self._memo, ("annihilator", target), target.annihilator)
                rows = ann.basis @ rows
            return Matrix.zero(0, self.space.dim(d)) if rows.is_zero() else rows
        return memoized(self._memo, ("cut_rows", d, s, level), compute)

    def orthogonal_rows(self, pairing, d, s) -> Matrix:
        """Rows R with (η^s(W_{≤−s}V^{2n−d−2s}))^⊥ = {v ∈ V^d : R·v = 0}
        under ``pairing`` (a ``duality.IntersectionPairing`` with center
        n): the basis of W_{≤−s}V^{2n−d−2s} times (η^s)ᵀ times the block
        Qᵀ, unreduced, with no rows when that product is zero."""
        def compute():
            src_d = 2 * pairing.center - d - 2 * s
            step = self.filtration.at(src_d, -s)
            pushed = self.eta.power_block(src_d, s).transpose()
            if not step.is_full():
                pushed = step.basis @ pushed
            rows = pushed @ pairing.block(d).transpose()
            return Matrix.zero(0, self.space.dim(d)) if rows.is_zero() else rows
        return memoized(self._memo, ("orthogonal_rows", pairing, d, s), compute)

    def cut_by(self, sub, blocks) -> Subspace:
        """{v ∈ sub : R·v = 0 for every row block R}, one cut by the stacked
        blocks.  On all of V^d the cut is the kernel of the rows, formed
        once per distinct rows on this instance."""
        blocks = [rows for rows in blocks if rows.rows]
        if not blocks:
            return sub
        rows = reduce(Matrix.stack, blocks)
        if sub.is_full():
            return memoized(self._memo, ("kernel", rows), lambda: kernel(rows))
        return sub.cut_by(rows)

    def failed_compatibility(self, pairing) -> str | None:
        """The first compatibility flag of ``pairing`` with this instance
        that fails, or None."""
        def compute():
            if not pairing.eta_self_adjoint(self.eta):
                return "operator self-adjointness"
            if not pairing.filtration_self_dual(self):
                return "filtration self-duality"
            return None
        return memoized(self._memo, ("failed_compatibility", pairing), compute)

    def label(self, d, j):
        labels = self.space.labels.get(d)
        return labels[j] if labels else f"e{d}_{j}"

    def format_vector(self, d, vector, reverse=False):
        """Human-readable combination of the degree-d basis labels;
        ``reverse`` lists the highest-index coordinates first."""
        terms = []
        entries = list(enumerate(vector))
        if reverse:
            entries.reverse()
        for j, c in entries:
            if not c:
                continue
            name = self.label(d, j)
            if c == 1:
                terms.append(f"+ {name}" if terms else name)
            elif c == -1:
                terms.append(f"- {name}" if terms else f"-{name}")
            else:
                cstr = str(c)
                if terms and not cstr.startswith("-"):
                    terms.append(f"+ {cstr} {name}")
                elif terms:
                    terms.append(f"- {cstr[1:]} {name}")
                else:
                    terms.append(f"{cstr} {name}")
        return " ".join(terms) if terms else "0"
