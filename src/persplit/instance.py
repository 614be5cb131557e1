"""The engine's central input value: a graded rational space with an
increasing filtration and a degree-2 operator, plus optional Hodge
bigrading and intersection pairing."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .graded import (Filtration, GradedMap, GradedSpace, graded_pieces,
                     validate_filtration)
from .linalg import Subspace, preimage


@dataclass(frozen=True)
class PerverseLefschetzInstance:
    center: int
    space: GradedSpace
    filtration: Filtration
    eta: GradedMap
    hodge: "object | None" = None      # hodge.HodgeBigrading
    pairing: "object | None" = None    # duality.IntersectionPairing
    groups: "dict | None" = None       # name -> tuple of degree-0 GradedMaps

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

    @cached_property
    def _cache(self):
        return {}

    def cached(self, key, compute):
        """``compute()``, run once per instance and ``key``.  The instance
        is immutable, so a value derived from it stays valid as long as
        the instance lives.  Each key belongs to one named accessor:
        ``cut`` here, the orthogonal cuts and the compatibility verdict in
        ``duality``.  The operator powers are cached on ``eta``."""
        cache = self._cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    def cut(self, d, s, level) -> Subspace:
        """{v ∈ V^d : η^s v ∈ W_{≤level}V^{d+2s}}, the preimage cut shared
        by the schedule, the direct characterization and their checks."""
        return self.cached(("cut", d, s, level), lambda: preimage(
            self.eta.power_block(d, s), self.filtration.at(d + 2 * s, level)))

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
