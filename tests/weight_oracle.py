"""Reference monodromy weight filtration for the weight-filtration tests.

The kernel/image convolution

    W_j = Σ_{k ≥ max(0, −j)} Ker N^{j+k+1} ∩ Im N^k,

which the engine evaluated before it switched to Deligne's recursion.
It builds its own powers of N and is kept here, outside the engine, as
the oracle the recursion is checked against.
"""

from persplit.linalg import Matrix, Subspace, kernel


def oracle_weight_filtration(n_mat, center=0):
    """{center + j: W_j} for j from −k to k − 1, k the nilpotency order;
    ``None`` if N is not nilpotent."""
    dim, field = n_mat.rows, n_mat.field
    powers = [Matrix.identity(dim, field)]
    while not powers[-1].is_zero():
        if len(powers) > dim:
            return None
        powers.append(n_mat @ powers[-1])
    order = len(powers) - 1              # N^order = 0
    kernels = [kernel(p) for p in powers]
    images = [Subspace(dim, p.transpose(), field) for p in powers]
    steps = {}
    for j in range(-order, order):
        acc = Subspace.zero(dim, field)
        for k in range(max(0, -j), order + 1):
            exp = j + k + 1
            ker_part = kernels[exp] if exp <= order else Subspace.full(dim, field)
            acc = acc.sum(ker_part.intersect(images[k]))
        steps[center + j] = acc
    return steps
