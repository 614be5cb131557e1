"""Graded spaces, graded maps, increasing filtrations and their graded
pieces, plus the monodromy weight filtration of a nilpotent operator.

Degrees are absolute integers; a filtration is stored sparsely by its
jump positions and clamps to the zero/full subspace outside them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import InputError, VerificationFailure
from .linalg import Matrix, QuotientMap, Subspace, image_of, quotient_map


_MISSING = object()


def memoized(memo: dict, key, compute):
    """``memo[key]``, set to ``compute()`` on first use.  Each immutable
    object that derives values from itself owns one such dict, its
    ``_memo``, keyed by the accessor's name and arguments; a derived value
    stays valid for as long as its owner lives.  A hit hashes the key
    once."""
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute()
    return value


class GradedSpace:
    """Finitely supported collection of coordinate spaces, one per degree."""

    __slots__ = ("dims", "labels")

    def __init__(self, dims, labels=None):
        dims = {int(d): int(n) for d, n in dims.items() if n}
        if any(n < 0 for n in dims.values()):
            raise InputError("negative dimension")
        labels = {int(d): tuple(ls) for d, ls in (labels or {}).items()}
        for d, ls in labels.items():
            if d in dims and len(ls) != dims[d]:
                raise InputError(f"degree {d}: {len(ls)} labels for dimension {dims[d]}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("GradedSpace is immutable")

    def dim(self, d):
        return self.dims.get(d, 0)

    @property
    def degrees(self):
        return sorted(self.dims)

    def __eq__(self, other):
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return self.dims == other.dims

    def __repr__(self):
        return f"GradedSpace({self.dims})"


class GradedMap:
    """Degree-homogeneous map of graded spaces; missing blocks are zero."""

    __slots__ = ("shift", "blocks", "source", "target", "_memo")

    def __init__(self, shift, blocks, source: GradedSpace, target: GradedSpace | None = None):
        target = target if target is not None else source
        blocks = {int(d): m for d, m in blocks.items() if not m.is_zero()}
        for d, m in blocks.items():
            if (m.rows, m.cols) != (target.dim(d + shift), source.dim(d)):
                raise InputError(
                    f"block at degree {d}: shape {m.rows}x{m.cols}, "
                    f"expected {target.dim(d + shift)}x{source.dim(d)}")
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("GradedMap is immutable")

    def block(self, d) -> Matrix:
        blk = self.blocks.get(d)
        if blk is None:
            return Matrix.zero(self.target.dim(d + self.shift), self.source.dim(d))
        return blk

    def power_block(self, d, s) -> Matrix:
        """The block of the s-fold composite starting at degree ``d``.

        Computed once per map, as block(d + (s−1)·shift) · power_block(d, s−1).
        """
        if s < 0:
            raise InputError("negative power")
        if self.source is not self.target and self.source != self.target and s > 1:
            raise InputError("powers require an endomorphism")

        def compute():
            if s == 0:
                return Matrix.identity(self.source.dim(d))
            if s == 1:
                return self.block(d)
            return self.block(d + (s - 1) * self.shift) @ self.power_block(d, s - 1)
        return memoized(self._memo, ("power_block", d, s), compute)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self ∘ other."""
        degs = set(other.blocks) | {d - other.shift for d in self.blocks}
        blocks = {d: self.block(d + other.shift) @ other.block(d) for d in degs}
        return GradedMap(self.shift + other.shift, blocks, other.source, self.target)

    def is_zero(self):
        return not self.blocks

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        return (self.shift, self.blocks) == (other.shift, other.blocks)

    def __repr__(self):
        return f"GradedMap(shift {self.shift}, blocks at {sorted(self.blocks)})"


class Filtration:
    """Increasing filtration of a graded space, stored by jumps.

    ``steps[(d, i)]`` is W_{≤i} of degree d; queries clamp to the zero
    subspace below the lowest jump and to the highest stored step above.
    The filtration owns its ``report`` and its quotient maps, each formed
    once in its ``_memo``; every instance and graded pieces built on the
    same filtration (a split model and its twist, say) share them.
    """

    __slots__ = ("space", "steps", "_jumps", "_memo")

    def __init__(self, space: GradedSpace, steps):
        norm, jumps = {}, {}
        for (d, i), sub in steps.items():
            d, i = int(d), int(i)
            if sub.ambient_dim != space.dim(d):
                raise InputError(f"step ({d},{i}): ambient {sub.ambient_dim} != dim {space.dim(d)}")
            norm[(d, i)] = sub
            jumps.setdefault(d, []).append(i)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "steps", norm)
        object.__setattr__(self, "_jumps", {d: sorted(js) for d, js in jumps.items()})
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Filtration is immutable")

    @property
    def report(self) -> FiltrationReport:
        """``validate_filtration`` of this filtration, run once."""
        return memoized(self._memo, ("report",), lambda: validate_filtration(self))

    def quotient(self, d, i) -> QuotientMap:
        """W_{≤i}V^d / W_{≤i−1}V^d with its recorded basis, formed once."""
        return memoized(self._memo, ("quotient", d, i),
                        lambda: quotient_map(self.at(d, i), self.at(d, i - 1)))

    def jumps(self, d):
        return list(self._jumps.get(d, ()))

    def at(self, d, i) -> Subspace:
        stored = self._jumps.get(d)
        if not stored:
            # No steps recorded for this degree: degenerate full at all i ≥ 0
            # only if the degree is absent; a present degree must have steps.
            if self.space.dim(d) == 0:
                return Subspace.zero(0)
            raise InputError(f"no filtration steps recorded for degree {d}")
        k = bisect_right(stored, i)
        if not k:
            return Subspace.zero(self.space.dim(d))
        return self.steps[(d, stored[k - 1])]

    def __eq__(self, other):
        if not isinstance(other, Filtration):
            return NotImplemented
        return self.space == other.space and self.steps == other.steps


@dataclass(frozen=True)
class FiltrationReport:
    valid: bool
    errors: tuple
    i_min: dict
    i_max: dict
    amplitude: int
    graded_dims: dict

    def __str__(self):
        if not self.valid:
            return "invalid filtration: " + "; ".join(self.errors)
        return (f"valid filtration, amplitude r = {self.amplitude}, "
                f"graded dims {self.graded_dims}")


def validate_filtration(filtr: Filtration) -> FiltrationReport:
    """Monotone/exhaustive/bounded check plus amplitude bookkeeping."""
    space = filtr.space
    errors = []
    i_min, i_max, graded_dims = {}, {}, {}
    for d in space.degrees:
        n = space.dim(d)
        stored = filtr.jumps(d)
        if not stored:
            errors.append(f"degree {d}: no filtration steps")
            continue
        prev = Subspace.zero(n)
        prev_i = None
        for i in stored:
            cur = filtr.steps[(d, i)]
            if not cur.contains(prev):
                errors.append(f"non-monotone at (d={d}, i={i})")
                break
            if cur.dim > prev.dim:
                graded_dims[(d, i)] = cur.dim - prev.dim
            prev, prev_i = cur, i
        top = filtr.steps[(d, stored[-1])]
        if not top.is_full():
            errors.append(f"degree {d}: filtration is not exhaustive "
                          f"(top step has dim {top.dim} < {n})")
        jump_is = [i for (dd, i) in graded_dims if dd == d]
        if jump_is:
            i_min[d], i_max[d] = min(jump_is), max(jump_is)
    amplitude = max((abs(i) for (_, i) in graded_dims), default=0)
    return FiltrationReport(not errors, tuple(errors), i_min, i_max, amplitude, graded_dims)


def check_strict_compatibility(filtr: Filtration, eta: GradedMap):
    """η(W_{≤i}V^d) ⊆ W_{≤i+2}V^{d+2} for all (d, i), one containment
    product per step; witness on failure."""
    if eta.shift != 2:
        raise InputError(f"operator must have degree 2, got {eta.shift}")
    space = filtr.space
    for d in space.degrees:
        if space.dim(d + 2) == 0:
            continue
        block = eta.block(d)
        for i in filtr.jumps(d):
            src = filtr.at(d, i)
            if src.is_zero():
                continue
            tgt = filtr.at(d + 2, i + 2)
            if tgt.is_full():
                continue
            # row j of the images is η of basis row j of the step
            images = block.transpose() if src.is_full() else src.basis @ block.transpose()
            if not tgt.contains_rows(images):
                witness = next(row for row in src.basis.data
                               if not tgt.contains_vector(block.apply(row)))
                return False, (d, i, witness)
    return True, None


class GradedPieces:
    """Quotients Gr_i V^d with recorded bases and the induced operator blocks.

    The quotient maps are the filtration's own (``Filtration.quotient``),
    one per nonzero piece; only the induced blocks depend on the operator
    and live in this object's ``_memo``."""

    __slots__ = ("filtration", "eta", "quotients", "_memo")

    def __init__(self, filtration, eta, quotients):
        object.__setattr__(self, "filtration", filtration)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "quotients", quotients)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("GradedPieces is immutable")

    @property
    def slots(self):
        return sorted(self.quotients)

    def quotient(self, d, i) -> QuotientMap | None:
        return self.quotients.get((d, i))

    def dim(self, d, i):
        q = self.quotients.get((d, i))
        return q.dim if q else 0

    def e_power_block(self, d, i, s) -> Matrix:
        """Induced block Gr_i V^d → Gr_{i+2s} V^{d+2s} of e^s: the target's
        projection times η^s times the source's section, with η^s read from
        the operator's own power cache; formed once per (d, i, s)."""
        def compute():
            src, tgt = self.quotients.get((d, i)), self.quotients.get((d + 2 * s, i + 2 * s))
            if src is None or tgt is None:
                return Matrix.zero(self.dim(d + 2 * s, i + 2 * s), self.dim(d, i))
            return tgt.projection @ self.eta.power_block(d, s) @ src.section.transpose()
        return memoized(self._memo, ("e_power_block", d, i, s), compute)


def graded_pieces(filtr: Filtration, eta: GradedMap) -> GradedPieces:
    """The pieces of ``filtr`` with the blocks induced by ``eta``.  Raises
    ``VerificationFailure`` if the filtration is invalid (read from its
    ``report``) or ``eta`` does not respect it."""
    report = filtr.report
    if not report.valid:
        raise VerificationFailure("; ".join(report.errors))
    ok, witness = check_strict_compatibility(filtr, eta)
    if not ok:
        d, i, vec = witness
        raise VerificationFailure(
            f"operator not compatible with filtration at (d={d}, i={i}); witness {vec}")
    quotients = {(d, i): filtr.quotient(d, i) for (d, i) in report.graded_dims}
    return GradedPieces(filtr, eta, quotients)


def _power_ladder(n_mat: Matrix):
    """[I, N, …, N^{k−1}] for the least k with N^k = 0, or None if N is not
    nilpotent (then N^dim ≠ 0)."""
    if n_mat.rows != n_mat.cols:
        raise InputError("nilpotency requires a square matrix")
    ladder = []
    power = Matrix.identity(n_mat.rows, n_mat.field)
    while not power.is_zero():
        if len(ladder) == n_mat.rows:
            return None
        ladder.append(power)
        power = n_mat if len(ladder) == 1 else n_mat @ power
    return ladder


def nilpotency_order(n_mat: Matrix):
    """Least k with N^k = 0, or None if N is not nilpotent."""
    ladder = _power_ladder(n_mat)
    return None if ladder is None else len(ladder)


def weight_filtration(n_mat: Matrix, center: int = 0) -> dict:
    """Monodromy weight filtration of a nilpotent endomorphism.

    Returns the map i → W_{≤i} (a Subspace) for i from center − k to
    center + k − 1, where k is the nilpotency order.  The output is the
    unique increasing filtration with N·W_{≤i} ⊆ W_{≤i−2} and
    N^j: Gr_{center+j} ≅ Gr_{center−j}.

    It is computed by Deligne's recursion (Weil II, §1.6): W_{l−1} =
    Ker N^l and W_{−l} = Im N^l, then the same on Ker N^l / Im N^l with
    the induced operator.  The subquotient is carried as a pair A ⊇ B of
    N-stable subspaces, so each level costs one cut of A by the rows
    ann(B)·N^l (the preimage of B under N^l, met with A in one kernel)
    and one image of N^l, read from one ladder of powers.  The kernel/image
    convolution Σ_k Ker N^{j+k+1} ∩ Im N^k gives the same filtration and
    survives only as the test oracle.
    """
    ladder = _power_ladder(n_mat)
    if ladder is None:
        raise InputError("operator is not nilpotent")
    a, b = Subspace.full(n_mat.rows, n_mat.field), Subspace.zero(n_mat.rows, n_mat.field)
    steps = {}
    for level in range(len(ladder) - 1, -1, -1):
        steps[center + level] = a
        steps[center - level - 1] = b
        if level:
            power = ladder[level]
            a, b = a.cut_by(b.annihilator().basis @ power), b.sum(image_of(power, a))
    return steps
