import tracemalloc

import numpy as np
import pytest

from conftest import max_abs, naturality_loop, random_series, random_signal, rel_err
from volterra.errors import ContractViolation
from volterra.evaluation import eval_freq
from volterra.kernels import VolterraKernel, VolterraSeries, delta_kernel, vfrf
from volterra import morphisms
from volterra.morphisms import (
    CATALOG_KINDS,
    Morphism,
    apply_component,
    catalog,
    check_naturality,
    compose_morphisms,
    lens_identity,
    pullback_gather,
    validate_morphism,
    weighted_pullback,
)

L = 12


def test_validate_identity_matrices(rng):
    V = random_series(2, 3, rng)
    m = lens_identity(V, L)
    assert validate_morphism(m, V, V).ok


def test_validate_order_raising_column(rng):
    # 1 -> 2 with the column (1, 0)^T preserves the frequency sum
    V = VolterraSeries({1: delta_kernel(1, 2, (1,))})
    W = random_series(2, 2, rng)
    m = Morphism(
        {1: 2},
        {1: np.array([[1], [0]])},
        {1: np.ones(L, dtype=complex)},
    )
    assert validate_morphism(m, V, W).ok


def test_validate_flags_bad_column_sum(rng):
    V = random_series(1, 2, rng)
    m = Morphism({1: 1}, {1: np.array([[2]])}, {1: np.ones(L, dtype=complex)})
    report = validate_morphism(m, V, V)
    assert not report.ok and any("column sums" in v for v in report.violations)


def test_validate_flags_missing_index(rng):
    V = random_series(2, 2, rng)
    m = Morphism({1: 1}, {1: np.eye(1, dtype=int)}, {1: np.ones(L, dtype=complex)})
    report = validate_morphism(m, V, V)
    assert any("no image" in v for v in report.violations)


@pytest.mark.parametrize(
    "matrix",
    [[[1.7]], [[1e308]], [[1.5]], [[True]], [["1"]], [[[1]]], [[1], [1, 0]], [[2**63]]],
    ids=["fraction", "float-1e308", "float-1.5", "bool", "string", "3-d", "ragged", "past-int64"],
)
def test_morphism_rejects_a_matrix_that_is_no_2d_integer_array(matrix):
    with pytest.raises(ContractViolation, match="frequency matrix at 1 must be a 2-d integer array"):
        Morphism({1: 1}, {1: matrix}, {1: np.ones(L, dtype=complex)})


@pytest.mark.parametrize(
    "matrix",
    [[[1]], np.eye(2, dtype=np.int32), np.array([[1, 0], [0, 1]], dtype=np.uint8), np.zeros((1, 0))],
    ids=["list", "int32", "uint8", "empty"],
)
def test_morphism_stores_integer_matrices_as_contiguous_int64(matrix):
    stored = Morphism({1: 1}, {1: matrix}, {1: np.ones(L, dtype=complex)}).matrices[1]
    assert stored.dtype == np.int64 and stored.flags.c_contiguous
    assert np.array_equal(stored, np.asarray(matrix))


def test_weighted_pullback_identity(rng):
    V = random_series(2, 3, rng)
    m = lens_identity(V, L)
    fr = vfrf(V.kernels[2], L)
    assert np.array_equal(weighted_pullback(m, 2, fr), fr)


def test_weighted_pullback_zero_mask(rng):
    V = random_series(1, 3, rng)
    m = Morphism({1: 1}, {1: np.eye(1, dtype=int)}, {1: np.zeros(L, dtype=complex)})
    fr = vfrf(V.kernels[1], L)
    assert max_abs(weighted_pullback(m, 1, fr)) == 0.0


def test_weighted_pullback_shear_spot_check(rng):
    V = random_series(2, 3, rng)
    mat = np.array([[2, 1], [-1, 0]])  # column sums 1: a shear-type map
    m = Morphism({2: 2}, {2: mat}, {2: np.ones((L, L), dtype=complex)})
    fr = vfrf(V.kernels[2], L)
    out = weighted_pullback(m, 2, fr)
    for point in [(3, 7), (0, 0), (11, 5)]:
        i1, i2 = point
        assert out[point] == fr[(2 * i1 + i2) % L, (-i1) % L]


def test_pullback_gather_shape_mismatch(rng):
    with pytest.raises(ContractViolation):
        pullback_gather(np.ones((L, L)), np.array([[1]]), L)


def test_component_identity_morphism_reproduces_series(rng):
    V = random_series(2, 3, rng)
    W, m = catalog("identity", V, L)
    s_hat = random_signal(L, rng)
    assert rel_err(apply_component(m, V, W, s_hat), eval_freq(V, s_hat)) < 1e-10


def test_component_autoconvolution_squares_spectra(rng):
    V = random_series(2, 3, rng)
    W, m = catalog("autoconvolution", V, L)
    squared = VolterraSeries(
        {
            j: VolterraKernel(j, L, np.fft.ifftn(vfrf(V.kernels[j], L) ** 2))
            for j in V.kernels
        }
    )
    s_hat = random_signal(L, rng)
    assert rel_err(apply_component(m, V, W, s_hat), eval_freq(squared, s_hat)) < 1e-10


def test_component_trivial_morphism_reproduces_series(rng):
    V = random_series(2, 3, rng)
    W, m = catalog("trivial", V, L)
    s_hat = random_signal(L, rng)
    assert max_abs(apply_component(m, V, W, s_hat) - eval_freq(V, s_hat)) < 1e-12


def test_naturality_identity_morphism(rng):
    V = random_series(2, 3, rng)
    W, m = catalog("identity", V, L)
    assert check_naturality(m, V, W, trials=5, rng=1) <= 1e-12


def test_naturality_autoconvolution_20_trials(rng):
    V = random_series(2, 3, rng)
    W, m = catalog("autoconvolution", V, L)
    assert check_naturality(m, V, W, trials=20, rng=2) <= 1e-9


def test_naturality_all_catalog_kinds(rng):
    V = random_series(2, 3, rng)
    params = {"translation": {1: (1,), 2: (2, 1)}, "sampling": 2, "smoothing": 0.6}
    for kind in CATALOG_KINDS:
        W, m = catalog(kind, V, L, params=params.get(kind))
        report = validate_morphism(m, V, W)
        assert report.ok, (kind, report.violations)
        assert check_naturality(m, V, W, trials=20, rng=3) <= 1e-9, kind


@pytest.mark.parametrize("trials", [0, -3])
def test_check_naturality_rejects_fewer_than_one_trial(trials, rng):
    V = random_series(2, 3, rng)
    W, m = catalog("identity", V, L)
    with pytest.raises(ContractViolation, match="trials"):
        check_naturality(m, V, W, trials=trials, rng=1)


@pytest.mark.parametrize("trials", [2.5, "3", None])
def test_check_naturality_rejects_a_non_integer_trial_count(trials, rng):
    V = random_series(2, 3, rng)
    W, m = catalog("identity", V, L)
    with pytest.raises(ContractViolation, match="trials"):
        check_naturality(m, V, W, trials=trials, rng=1)
    assert check_naturality(m, V, W, trials=np.int64(2), rng=1) <= 1e-12


@pytest.mark.parametrize(
    "matrix",
    [[[2]], [[2, 1], [1, 0]]],
    ids=["column sum 2", "column sum 3"],
)
def test_check_naturality_fails_when_a_column_sum_is_not_one(matrix, rng):
    # T on the target pulled back through the matrix delays axis q by its column
    # sum, T on the input by one sample: the legs differ unless every sum is 1 mod L
    j = len(matrix[0])
    V, W = random_series(j, 3, rng), random_series(len(matrix), 3, rng)
    m = Morphism({j: len(matrix)}, {j: np.array(matrix)}, {j: np.ones((L,) * j, dtype=complex)})
    residual = check_naturality(m, V, W, trials=20, rng=1)
    assert residual > 1
    assert abs(residual - naturality_loop(m, V, W, 20, 1, L)) <= 1e-12


NATURALITY_PARAMS = {"translation": {1: (1,), 2: (2, 1), 3: (1, 0, 2)}, "sampling": 2, "smoothing": 0.6}


@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_check_naturality_chunks_match_a_loop_of_components(kind, rng):
    length, trials = 16, 20
    rows = morphisms._BATCH_ENTRIES // length**3  # trials per chunk at order 3
    assert 1 < rows < trials and trials % rows  # several chunks, the last one short
    V = random_series(3, 3, rng)
    W, m = catalog(kind, V, length, params=NATURALITY_PARAMS.get(kind))
    draws = np.random.default_rng(5)
    got = check_naturality(m, V, W, trials=trials, rng=draws)
    assert abs(got - naturality_loop(m, V, W, trials, 5, length)) <= 1e-12
    # each trial draws 2 * length normals: the real and the imaginary parts of its spectrum
    reference = np.random.default_rng(5)
    reference.standard_normal(2 * length * trials)
    assert draws.standard_normal() == reference.standard_normal()


@pytest.mark.parametrize("kind", ["identity", "translation"])
def test_check_naturality_one_trial_chunks_match_a_loop_of_components(kind, rng):
    length, trials = 32, 3
    assert morphisms._BATCH_ENTRIES // length**3 == 1  # one trial per chunk at order 3
    V = random_series(3, 3, rng)
    W, m = catalog(kind, V, length, params=NATURALITY_PARAMS.get(kind))
    got = check_naturality(m, V, W, trials=trials, rng=6)
    assert abs(got - naturality_loop(m, V, W, trials, 6, length)) <= 1e-12


def test_check_naturality_memory_is_bounded_by_the_chunk(rng):
    # 20 trials at L=32, order 3: one unchunked batch would hold 20 * 32**3 entries (10 MiB)
    V = random_series(3, 3, rng)
    W, m = catalog("identity", V, 32)
    tracemalloc.start()
    try:
        check_naturality(m, V, W, trials=20, rng=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_convolution_type_component_breaks_naturality(rng):
    # A component that shifts the output spectrum is convolution-type in the
    # spectral domain; the naturality square fails for it, unlike the
    # mask-and-pullback components above.  Demonstrated at order 1 where the
    # component is an explicit linear map on spectra.
    V = random_series(1, 3, rng)
    fr = vfrf(V.kernels[1], L)

    def mask_component(s_hat):
        return fr * s_hat  # pointwise: commutes with multipliers

    def shifted_component(s_hat):
        return np.roll(fr * s_hat, 3)  # spectral shift: convolution-type

    worst_mask, worst_shift = 0.0, 0.0
    for seed in range(5):
        local = np.random.default_rng(seed)
        s_hat = random_signal(L, local)
        gamma = random_signal(L, local)
        worst_mask = max(
            worst_mask, max_abs(mask_component(gamma * s_hat) - gamma * mask_component(s_hat))
        )
        worst_shift = max(
            worst_shift,
            max_abs(shifted_component(gamma * s_hat) - gamma * shifted_component(s_hat)),
        )
    assert worst_mask <= 1e-12
    assert worst_shift > 1e3 * max(worst_mask, 1e-15)


def test_compose_morphisms_matches_sequential_components(rng):
    V = random_series(2, 3, rng)
    W1, f = catalog("translation", V, L, params=1)
    W2, g = catalog("autoconvolution", W1, L)
    h = compose_morphisms(g, f)
    assert validate_morphism(h, V, W2).ok
    # matrices and index maps compose exactly
    for i in h.index_map:
        assert h.index_map[i] == g.index_map[f.index_map[i]]
        assert np.array_equal(h.matrices[i], g.matrices[f.index_map[i]] @ f.matrices[i])


def test_compose_unital(rng):
    V = random_series(2, 3, rng)
    W, f = catalog("sampling", V, L, params=2)
    left = compose_morphisms(f, lens_identity(V, L))
    right = compose_morphisms(lens_identity(W, L), f)
    for m in (left, right):
        assert m.index_map == f.index_map
        for i in f.index_map:
            assert np.array_equal(m.matrices[i], f.matrices[i])
            assert np.array_equal(m.masks[i], f.masks[i])


def test_compose_associative_fieldwise(rng):
    V = random_series(2, 3, rng)
    W1, f = catalog("translation", V, L, params={1: (1,), 2: (0, 2)})
    W2, g = catalog("sampling", W1, L, params=2)
    W3, h = catalog("smoothing", W2, L, params=0.8)
    left = compose_morphisms(compose_morphisms(h, g), f)
    right = compose_morphisms(h, compose_morphisms(g, f))
    assert left.index_map == right.index_map
    for i in left.index_map:
        assert np.array_equal(left.matrices[i], right.matrices[i])
        assert np.array_equal(left.masks[i], right.masks[i])


def test_compose_domain_mismatch(rng):
    V = random_series(1, 2, rng)
    U = VolterraSeries({"z": delta_kernel(1, 2)})
    _, f = catalog("trivial", V, L)
    m_bad = Morphism({"z": "z"}, {"z": np.eye(1, dtype=int)}, {"z": np.ones(L, complex)})
    with pytest.raises(ContractViolation):
        compose_morphisms(m_bad, f)


def test_catalog_translation_zero_equals_trivial(rng):
    V = random_series(2, 3, rng)
    Wt, mt = catalog("translation", V, L, params=0)
    W0, m0 = catalog("trivial", V, L)
    for i in V.kernels:
        assert np.array_equal(Wt.kernels[i].data, W0.kernels[i].data)
        assert np.array_equal(mt.masks[i], m0.masks[i])


def test_catalog_sampling_unit_period_is_constant_kernel(rng):
    V = random_series(2, 3, rng)
    W, _ = catalog("sampling", V, L, params=1)
    for i in V.kernels:
        assert max_abs(W.kernels[i].data - 1.0) == 0.0


def test_catalog_smoothing_semigroup(rng):
    V = VolterraSeries({1: delta_kernel(1, 4), 2: delta_kernel(2, 4)})
    M = 48
    W1, _ = catalog("smoothing", V, L, params=0.08, memory=M)
    W2, _ = catalog("smoothing", V, L, params=0.04, memory=M)
    for j in (1, 2):
        g = W1.kernels[j].data
        twice = np.fft.ifftn(np.fft.fftn(g) ** 2)
        assert max_abs(twice - W2.kernels[j].data) <= 1e-8


def test_catalog_smoothing_rejects_indefinite(rng):
    V = random_series(2, 3, rng)
    with pytest.raises(ContractViolation):
        catalog("smoothing", V, L, params={1: -1.0, 2: -1.0})


def test_catalog_column_sums_exact(rng):
    V = random_series(2, 3, rng)
    for kind in CATALOG_KINDS:
        params = {"translation": 1, "sampling": 2, "smoothing": 0.7}.get(kind)
        _, m = catalog(kind, V, L, params=params)
        for mat in m.matrices.values():
            assert np.all(mat.sum(axis=0) == 1)
