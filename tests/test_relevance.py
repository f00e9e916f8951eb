import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relcentral import relevance
from relcentral.errors import (
    DiagonalQueryError,
    EmptyPathError,
    MatrixShapeMismatchError,
    NonzeroDiagonalError,
    PathVariantRequiresPathError,
)
from relcentral.graph import build_graph
from relcentral.relevance import (
    MAX,
    MEAN,
    PATH_PROD,
    PATH_SUM,
    PRODUCT,
    SOURCE_ONLY,
    RelevanceFunction,
    RelevanceVector,
    Variant,
    eval_pair,
    eval_path,
    matrix_function,
    pair_values,
    validate_function,
)

R4 = RelevanceVector(np.array([2.0, 3.0, 5.0, 7.0]))


def test_variant_flags():
    assert Variant.PATH_SUM.is_path and Variant.PATH_PROD.is_path
    assert Variant.PRODUCT.is_pairwise and not Variant.PRODUCT.is_path
    assert Variant.MATRIX.is_pairwise
    assert Variant.PRODUCT.is_symmetric and Variant.MAX.is_symmetric
    assert not Variant.SOURCE_ONLY.is_symmetric
    assert not Variant.MATRIX.is_symmetric


def test_variant_values_are_cli_names():
    assert Variant("path-prod") is Variant.PATH_PROD
    assert Variant.SOURCE_ONLY.value == "source"


@pytest.mark.parametrize("bad", [[-1.0, 2.0], [0.0, 1.0], [np.nan, 1.0], [np.inf, 1.0]])
def test_vector_rejects_non_positive_or_non_finite(bad):
    with pytest.raises(ValueError):
        RelevanceVector(np.array(bad))


def test_vector_rejects_wrong_rank():
    with pytest.raises(ValueError):
        RelevanceVector(np.ones((2, 2)))


def test_vector_is_read_only():
    R = RelevanceVector(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        R.values[0] = 5.0


def test_vector_basics():
    R = RelevanceVector.ones(3)
    assert len(R) == 3 and R[1] == 1.0 and R.is_uniform()
    assert not R4.is_uniform()


def test_from_mapping_defaults_missing_to_one():
    g = build_graph([("a", "b"), ("b", "c")])
    R = RelevanceVector.from_mapping(g, {"b": 4.0})
    np.testing.assert_array_equal(R.values, [1.0, 4.0, 1.0])


def test_matrix_variant_requires_square_table():
    with pytest.raises(MatrixShapeMismatchError):
        RelevanceFunction(Variant.MATRIX)
    with pytest.raises(MatrixShapeMismatchError):
        matrix_function(np.ones((2, 3)))
    with pytest.raises(MatrixShapeMismatchError):
        RelevanceFunction(Variant.PRODUCT, matrix=np.zeros((2, 2)))


def test_eval_pair_builtin_values():
    assert eval_pair(PRODUCT, 0, 1, R4) == 6.0
    assert eval_pair(MEAN, 0, 1, R4) == 2.5
    assert eval_pair(SOURCE_ONLY, 2, 0, R4) == 5.0
    assert eval_pair(MAX, 0, 3, R4) == 7.0


def test_eval_pair_diagonal_rejected():
    with pytest.raises(DiagonalQueryError):
        eval_pair(PRODUCT, 1, 1, R4)


def test_eval_pair_matrix_is_positional_and_asymmetric():
    F = np.array([[0.0, 2.0], [5.0, 0.0]])
    f = matrix_function(F)
    R = RelevanceVector.ones(2)
    assert eval_pair(f, 0, 1, R) == 2.0
    assert eval_pair(f, 1, 0, R) == 5.0


def test_eval_pair_path_variant_needs_a_path():
    with pytest.raises(PathVariantRequiresPathError):
        eval_pair(PATH_SUM, 0, 1, R4)


def test_eval_path_includes_endpoints():
    assert eval_path(PATH_SUM, (0, 1, 2), R4) == 10.0
    assert eval_path(PATH_PROD, (0, 1, 2), R4) == 30.0
    assert eval_path(PATH_SUM, (0, 3), R4) == 9.0


def test_eval_path_pairwise_uses_only_endpoints():
    assert eval_path(PRODUCT, (0, 1, 2, 3), R4) == 14.0
    assert eval_path(SOURCE_ONLY, (3, 0), R4) == 7.0


def test_eval_path_too_short():
    with pytest.raises(EmptyPathError):
        eval_path(PATH_SUM, (0,), R4)
    with pytest.raises(EmptyPathError):
        eval_path(PRODUCT, (), R4)


def test_validate_pairwise_builtins_clean():
    for f in (PRODUCT, MEAN, SOURCE_ONLY, MAX):
        rep = validate_function(f)
        assert rep.ok and rep.normalized and rep.monotone


@pytest.mark.parametrize("decreasing_in", ["source", "target"])
def test_validate_flags_a_decreasing_f(monkeypatch, decreasing_in):
    # f(1,1) = 1, increasing in one argument and decreasing in the other
    def ratio(f, s, t, R):
        r = R.values
        return r[t] / r[s] if decreasing_in == "source" else r[s] / r[t]

    monkeypatch.setattr(relevance, "pair_values", ratio)
    monkeypatch.setattr(relevance, "eval_pair", None)  # validation reads f as arrays only
    rep = validate_function(PRODUCT)
    assert rep.normalized and rep.monotone is False
    assert rep.warnings == ["f is not monotone on the probe grid"]


def test_validate_path_sum_flags_normalization():
    rep = validate_function(PATH_SUM)
    assert rep.normalized is False and not rep.ok
    assert any("f(1,1)" in w for w in rep.warnings)


def test_validate_path_prod_is_normalized():
    rep = validate_function(PATH_PROD)
    assert rep.ok and rep.normalized


def test_validate_matrix_diagonal_and_negative():
    with pytest.raises(NonzeroDiagonalError):
        validate_function(matrix_function(np.array([[1.0, 2.0], [3.0, 0.0]])))
    rep = validate_function(matrix_function(np.array([[0.0, -1.0], [2.0, 0.0]])))
    assert not rep.ok and any("negative" in w for w in rep.warnings)


def test_pair_values_block_form_one_row_zero_diagonal():
    out = pair_values(PRODUCT, np.array([1])[:, None], np.arange(4), R4)
    np.testing.assert_allclose(out, [[6.0, 0.0, 15.0, 21.0]])


@pytest.mark.parametrize("seed", range(4))
def test_pair_values_match_eval_pair_on_random_index_arrays(seed):
    rng = np.random.default_rng(seed)
    n = 9
    R = RelevanceVector(rng.uniform(0.5, 3.0, size=n))
    F = rng.uniform(0.1, 2.0, size=(n, n))  # nonzero diagonal: still 0 where s == t
    s = rng.integers(0, n, size=60)
    t = np.where(np.arange(60) % 5 == 0, s, rng.integers(0, n, size=60))
    for f in (PRODUCT, MEAN, SOURCE_ONLY, MAX, matrix_function(F)):
        out = pair_values(f, s, t, R)
        assert out.shape == s.shape
        want = [0.0 if a == b else eval_pair(f, a, b, R) for a, b in zip(s, t)]
        np.testing.assert_array_equal(out, want)
        # broadcast forms agree with the flat form
        grid = pair_values(f, s[:, None], t[None, :], R)
        np.testing.assert_array_equal(np.diagonal(grid), out)
    for f in (PATH_SUM, PATH_PROD):
        with pytest.raises(PathVariantRequiresPathError):
            pair_values(f, s, t, R)


def test_pair_values_block_form_matches_scalar_eval():
    rng = np.random.default_rng(7)
    R = RelevanceVector(rng.uniform(0.5, 3.0, size=5))
    F = rng.uniform(0.1, 2.0, size=(5, 5))
    np.fill_diagonal(F, 0.0)
    for f in (PRODUCT, MEAN, SOURCE_ONLY, MAX, matrix_function(F)):
        block = pair_values(f, np.array([0, 3])[:, None], np.arange(5), R)
        assert block.shape == (2, 5)
        for bi, s in enumerate((0, 3)):
            for t in range(5):
                want = 0.0 if s == t else eval_pair(f, s, t, R)
                assert block[bi, t] == pytest.approx(want)


@given(
    a=st.floats(0.1, 50, allow_nan=False),
    b=st.floats(0.1, 50, allow_nan=False),
)
def test_symmetric_variants_commute(a, b):
    R = RelevanceVector(np.array([a, b]))
    for f in (PRODUCT, MEAN, MAX):
        assert eval_pair(f, 0, 1, R) == eval_pair(f, 1, 0, R)
    assert eval_pair(SOURCE_ONLY, 0, 1, R) == a


def test_labels():
    assert PRODUCT.label == "product"
    F = np.zeros((3, 3))
    assert "matrix" in matrix_function(F).label
