"""The engine's central input value: a graded rational space with an
increasing filtration and a degree-2 operator, plus optional Hodge
bigrading and intersection pairing."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError
from .graded import (Filtration, GradedMap, GradedSpace, graded_pieces, memoized,
                     validate_filtration)
from .linalg import Subspace, image_of, preimage


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

    @cached_property
    def filtration_report(self):
        return validate_filtration(self.space, self.filtration)

    @property
    def amplitude(self):
        return self.filtration_report.amplitude

    @cached_property
    def pieces(self):
        return graded_pieces(self.space, self.filtration, self.eta)

    def cut(self, d, s, level) -> Subspace:
        """{v ∈ V^d : η^s v ∈ W_{≤level}V^{d+2s}}, the preimage cut shared
        by the schedule, the direct characterization and their checks."""
        return memoized(self._memo, ("cut", d, s, level), lambda: preimage(
            self.eta.power_block(d, s), self.filtration.at(d + 2 * s, level)))

    def orthogonal_cut(self, pairing, d, s) -> Subspace:
        """(η^s(W_{≤−s}V^{2n−d−2s}))^⊥ ⊆ V^d under ``pairing`` (a
        ``duality.IntersectionPairing`` with center n)."""
        def compute():
            src_d = 2 * pairing.center - d - 2 * s
            pushed = image_of(self.eta.power_block(src_d, s), self.filtration.at(src_d, -s))
            return pairing.perp(pushed, d)
        return memoized(self._memo, ("orthogonal_cut", pairing, d, s), compute)

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
