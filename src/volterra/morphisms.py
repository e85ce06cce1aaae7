"""Lens-map morphisms between Volterra series.

A morphism from V to W is (1) a map between index sets, (2) per source
index an integer matrix taking source frequency vectors to target ones,
and (3) a complex mask over the source frequency lattice.  The matrix must
have all column sums equal to 1: that is the discrete form of preserving
the frequency sum, since 1^T M = 1^T forces sum(M Omega) = sum(Omega) mod L.
The backward (weighted pullback) map precomposes a target kernel spectrum
with the matrix and multiplies by the mask.

Constant (order-0) terms carry no frequency argument and sit outside the
lens data; morphisms are defined on the indices of order >= 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .evaluation import outer_power, _signal, _slice_sum
from .kernels import VolterraKernel, VolterraSeries, delta_kernel, vfrf

__all__ = [
    "Morphism",
    "ValidationReport",
    "validate_morphism",
    "weighted_pullback",
    "apply_component",
    "check_naturality",
    "compose_morphisms",
    "lens_identity",
    "catalog",
    "CATALOG_KINDS",
]


@dataclass(frozen=True)
class Morphism:
    """Lens datum: index map forward, frequency matrix and mask per index."""

    index_map: dict
    matrices: dict
    masks: dict

    def __post_init__(self):
        object.__setattr__(self, "index_map", dict(self.index_map))
        matrices = {
            i: np.ascontiguousarray(np.asarray(mat, dtype=np.int64))
            for i, mat in dict(self.matrices).items()
        }
        masks = {i: np.asarray(mk, dtype=np.complex128) for i, mk in dict(self.masks).items()}
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "masks", masks)

    @property
    def length(self) -> int | None:
        for mask in self.masks.values():
            if mask.ndim > 0:
                return mask.shape[0]
        return None

    def source_indices(self) -> tuple:
        return tuple(self.index_map)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_morphism(m: Morphism, V: VolterraSeries, W: VolterraSeries) -> ValidationReport:
    """Check index-map totality, matrix shapes and column sums, mask shapes."""
    problems = []
    L = m.length
    source_indices = [i for i in V.kernels if V.kernels[i].order >= 1]
    for i in source_indices:
        if i not in m.index_map:
            problems.append(f"index {i!r} of the source has no image")
    for i, target in m.index_map.items():
        if i not in V.kernels:
            problems.append(f"mapped index {i!r} is not in the source series")
            continue
        if target not in W.kernels:
            problems.append(f"image {target!r} of index {i!r} is not in the target series")
            continue
        src_order = V.kernels[i].order
        tgt_order = W.kernels[target].order
        mat = m.matrices.get(i)
        if mat is None:
            problems.append(f"index {i!r} has no frequency matrix")
        else:
            if mat.shape != (tgt_order, src_order):
                problems.append(
                    f"matrix at {i!r} has shape {mat.shape}, expected {(tgt_order, src_order)}"
                )
            elif src_order > 0:
                sums = mat.sum(axis=0)
                if not np.all(sums == 1):
                    problems.append(
                        f"matrix at {i!r} has column sums {sums.tolist()}, all must equal 1"
                    )
        mask = m.masks.get(i)
        if mask is None:
            problems.append(f"index {i!r} has no mask")
        elif mask.ndim != src_order or (src_order > 0 and L is not None and mask.shape != (L,) * src_order):
            problems.append(
                f"mask at {i!r} has shape {mask.shape}, expected {(L,) * src_order}"
            )
    return ValidationReport(tuple(problems))


@functools.lru_cache(maxsize=128)
def _flat_index(matrix_bytes: bytes, shape: tuple, L: int) -> np.ndarray:
    """Flat target index of matrix @ Omega mod L at every source point Omega.

    Read-only and cached by the matrix's int64 bytes, its shape and L; it
    never depends on the data gathered through it.
    """
    matrix = np.frombuffer(matrix_bytes, dtype=np.int64).reshape(shape)
    omega = np.indices((L,) * shape[1], sparse=True)
    flat = np.zeros((L,) * shape[1], dtype=np.int64)
    for row in matrix:
        flat *= L
        flat += sum((int(c) * w for c, w in zip(row, omega) if c), 0) % L
    flat.setflags(write=False)
    return flat


def pullback_gather(target_data: np.ndarray, matrix: np.ndarray, L: int) -> np.ndarray:
    """Precompose a target-lattice tensor with the integer frequency map."""
    tgt_order, src_order = matrix.shape
    if tgt_order != target_data.ndim:
        raise ContractViolation(
            f"matrix maps into order {tgt_order} but target tensor has order {target_data.ndim}"
        )
    if tgt_order == 0:
        return np.full((L,) * src_order, complex(target_data))
    if src_order == 0:
        return np.asarray(target_data[(0,) * tgt_order])
    if target_data.shape != (L,) * tgt_order:
        raise ContractViolation(
            f"target tensor has shape {target_data.shape}, expected {(L,) * tgt_order}"
        )
    matrix = np.ascontiguousarray(matrix, dtype=np.int64)
    return target_data.ravel()[_flat_index(matrix.tobytes(), matrix.shape, int(L))]


def weighted_pullback(m: Morphism, i, target_frf) -> np.ndarray:
    """mask(Omega) * w_hat(matrix @ Omega mod L) over the source lattice."""
    L = m.length
    mask = m.masks[i]
    pulled = pullback_gather(np.asarray(target_frf), m.matrices[i], L)
    if pulled.shape != mask.shape:
        raise ContractViolation(
            f"pullback shape {pulled.shape} does not match mask shape {mask.shape}"
        )
    return mask * pulled


def apply_component(
    m: Morphism,
    V: VolterraSeries,
    W: VolterraSeries,
    s_hat,
    post_weights=None,
) -> np.ndarray:
    """The component of the morphism at the signal, as an output spectrum.

    phi_s(w) = sum_i (1/L**([i]-1)) sum_{sum(Omega)=w}
               (mask_i . v_hat_i . s_hat^(x)[i])(Omega) * w_hat(matrix_i @ Omega).

    ``post_weights``, if given, multiplies the assembled integrand by the
    tensor power of a multiplier's weight vector as the outermost factor:
    the target-side leg of the naturality square.
    """
    s_hat = _signal(s_hat)
    L = s_hat.size
    if m.length is not None and m.length != L:
        raise ContractViolation(f"morphism masks built for length {m.length}, spectrum has {L}")
    post = None if post_weights is None else _signal(post_weights)
    out = np.zeros(L, dtype=np.complex128)
    for i, target in m.index_map.items():
        kernel = V.kernels[i]
        j = kernel.order
        if j == 0:
            continue
        factors = [weighted_pullback(m, i, vfrf(W.kernels[target], L))]
        if post is not None:
            factors.append(outer_power(post, j))
        out += _slice_sum(kernel, s_hat, *factors)
    return out


def check_naturality(
    m: Morphism,
    V: VolterraSeries,
    W: VolterraSeries,
    trials: int = 20,
    rng=None,
    L: int | None = None,
) -> float:
    """Max deviation between the two legs of the naturality square.

    For random multipliers f and signals s, compares the component applied
    after the input-side action of f against the target-side weighting of
    the assembled component integrand.  Mask-and-pullback components make
    the square commute to rounding; convolution-type components do not.
    """
    rng = np.random.default_rng(rng)
    L = L if L is not None else m.length
    if L is None:
        raise ContractViolation("cannot infer grid length from an empty morphism")
    worst = 0.0
    for _ in range(trials):
        s_hat = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        gamma = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        through_input = apply_component(m, V, W, gamma * s_hat)
        through_target = apply_component(m, V, W, s_hat, post_weights=gamma)
        worst = max(worst, float(np.max(np.abs(through_input - through_target))))
    return worst


def compose_morphisms(g: Morphism, f: Morphism) -> Morphism:
    """g after f: index maps compose forward, matrices multiply, masks stack.

    mask = mask_f * (mask_g pulled back along f's matrix); matrix =
    matrix_g @ matrix_f.  Column sums stay 1 automatically.
    """
    L = f.length or g.length
    index_map, matrices, masks = {}, {}, {}
    for i, mid in f.index_map.items():
        if mid not in g.index_map:
            raise ContractViolation(
                f"codomain index {mid!r} of the first morphism is not in the second's domain"
            )
        index_map[i] = g.index_map[mid]
        matrices[i] = g.matrices[mid] @ f.matrices[i]
        masks[i] = f.masks[i] * pullback_gather(g.masks[mid], f.matrices[i], L)
    return Morphism(index_map, matrices, masks)


def lens_identity(V: VolterraSeries, L: int) -> Morphism:
    """The unit lens at V: identity index map, identity matrices, unit masks."""
    index_map, matrices, masks = {}, {}, {}
    for i, kernel in V.kernels.items():
        if kernel.order == 0:
            continue
        index_map[i] = i
        matrices[i] = np.eye(kernel.order, dtype=np.int64)
        masks[i] = np.ones((L,) * kernel.order, dtype=np.complex128)
    return Morphism(index_map, matrices, masks)


CATALOG_KINDS = ("trivial", "autoconvolution", "identity", "translation", "sampling", "smoothing")


def _wrapped_quadratic(order: int, memory: int, C: np.ndarray) -> np.ndarray:
    """exp(-tau^T C tau) on the wrapped (signed-residue) delay lattice, unit sum."""
    coords = np.indices((memory,) * order).reshape(order, -1)
    signed = (coords + memory // 2) % memory - memory // 2
    quad = np.einsum("ri,rc,ci->i", signed, C, signed)
    values = np.exp(-quad)
    values = values / values.sum()
    return values.reshape((memory,) * order)


def catalog(
    kind: str,
    V: VolterraSeries,
    L: int,
    params=None,
    eps: float | None = None,
    memory: int | None = None,
):
    """Build (target series, morphism) for the stock morphism families.

    kinds: ``trivial`` (delta-train target), ``autoconvolution`` (target V
    itself; the component squares each spectrum), ``identity`` (reciprocal-
    spectrum mask on the support), ``translation`` (delta at per-order
    offsets), ``sampling`` (comb kernels with per-order periods),
    ``smoothing`` (wrapped Gaussian kernels from per-order positive-definite
    quadratic forms).  ``params`` maps a source index (or order, for
    canonical series) to the family parameter; a scalar applies everywhere.
    """
    if kind not in CATALOG_KINDS:
        raise ContractViolation(f"unknown catalog kind {kind!r}; choose from {CATALOG_KINDS}")
    unit = lens_identity(V, L)

    def param_for(i, default=None):
        if params is None:
            return default
        if isinstance(params, dict):
            if i in params:
                return params[i]
            order = V.kernels[i].order
            return params.get(order, default)
        return params

    target_kernels = {}
    masks = dict(unit.masks)
    for i in unit.index_map:
        kernel = V.kernels[i]
        j = kernel.order
        if kind == "trivial":
            target_kernels[i] = delta_kernel(j, 1)
        elif kind == "autoconvolution":
            target_kernels[i] = kernel
        elif kind == "identity":
            target_kernels[i] = kernel
            fr = vfrf(kernel, L)
            cutoff = (1e-12 * float(np.max(np.abs(fr)))) if eps is None else eps
            mask = np.zeros_like(fr)
            support = np.abs(fr) >= cutoff
            mask[support] = 1.0 / fr[support]
            masks[i] = mask
        elif kind == "translation":
            offset = param_for(i, 0)
            offsets = tuple(int(o) for o in (offset if np.ndim(offset) else [offset] * j))
            if len(offsets) != j:
                raise ContractViolation(f"offset vector {offsets} does not match order {j}")
            M = max(offsets) + 1
            target_kernels[i] = delta_kernel(j, M, offsets)
        elif kind == "sampling":
            T = int(param_for(i, 1))
            if T < 1:
                raise ContractViolation(f"sampling period must be >= 1, got {T}")
            M = memory if memory is not None else max(V.memory, T)
            grid = np.indices((M,) * j)
            comb = np.all(grid % T == 0, axis=0).astype(np.complex128)
            target_kernels[i] = VolterraKernel(j, M, comb)
        elif kind == "smoothing":
            C = param_for(i)
            if C is None:
                raise ContractViolation("smoothing needs a quadratic form per order")
            C = np.atleast_2d(np.asarray(C, dtype=float))
            if C.shape == (1, 1) and j > 1:
                C = C[0, 0] * np.eye(j)
            if C.shape != (j, j):
                raise ContractViolation(f"quadratic form shape {C.shape} does not match order {j}")
            sym = 0.5 * (C + C.T)
            if np.any(np.linalg.eigvalsh(sym) <= 0):
                raise ContractViolation("smoothing quadratic form must be positive definite")
            M = memory if memory is not None else max(V.memory, 4)
            target_kernels[i] = VolterraKernel(j, M, _wrapped_quadratic(j, M, sym))

    return VolterraSeries(target_kernels), Morphism(unit.index_map, unit.matrices, masks)
