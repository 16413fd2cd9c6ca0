"""Observable container, text format, and norm constants."""

import math

import numpy as np
import pytest

from paulishadow.observables import (
    Observable,
    heisenberg_observable,
    locality_norm_constant,
)
from paulishadow.paulis import PauliString, iter_all_paulis, letter_codes


def P(label):
    return PauliString.from_label(label)


def test_terms_fold_signs():
    obs = Observable(2, {P("-XZ"): 0.5, P("ZI"): 1.0})
    assert obs.coefficient(P("XZ")) == -0.5
    assert obs.coefficient(P("-XZ")) == 0.5  # sign-aware lookup
    assert obs.coefficient(P("YY")) == 0.0
    assert len(obs.terms()) == 2


def test_duplicate_terms_accumulate():
    obs = Observable(1, [(P("Z"), 0.25), (P("-Z"), 0.1)])
    assert obs.coefficient(P("Z")) == pytest.approx(0.15)


def test_terms_that_sum_to_zero_are_dropped():
    assert list(Observable(2, [("XX", 0.5), ("XX", -0.5), ("ZI", 1.0)]).terms()) == [P("ZI")]
    obs = Observable(3, [("YZI", 0.2), ("XXX", 0.0), ("IIZ", 0.3), ("-XII", 0.0), ("ZII", 0.1)])
    assert list(obs.terms()) == [P("YZI"), P("IIZ"), P("ZII")]  # the others' order is kept
    assert obs.locality == 2
    assert Observable(2, [("ZZ", 0.0)]).terms() == {}
    with pytest.raises(ValueError, match="non-finite"):
        Observable(1, [("Z", 1.0), ("Z", math.inf), ("Z", -math.inf)])


def test_qubit_count_mismatch():
    with pytest.raises(ValueError):
        Observable(2, {P("X"): 1.0})


def test_text_round_trip(tmp_path):
    """An observable's text form, as the README documents it, loads back into
    the observable built in code."""
    obs = Observable(2, {P("XZ"): 0.27, P("II"): -0.3, P("YI"): 1.5})
    path = tmp_path / "obs.txt"
    path.write_text("XZ 0.27\nII -0.3\nYI 1.5\n")
    back = Observable.load(path)
    assert back.terms() == obs.terms()


def test_from_text_comments_and_errors():
    obs = Observable.from_text("# comment\nXZ 0.5\n\nZI 1\n")
    assert obs.n == 2 and len(obs.terms()) == 2
    with pytest.raises(ValueError, match="line 2"):
        Observable.from_text("XZ 0.5\nbogus\n")
    with pytest.raises(ValueError, match="line 3"):
        Observable.from_text("XZ 0.5\nZI 1\nXZI 2\n")  # length change


def test_matrix_and_expectation_shapes():
    obs = Observable(2, {P("XZ"): 0.5, P("II"): 0.1})
    m = obs.matrix()
    assert m.shape == (4, 4)
    want = 0.5 * P("XZ").matrix() + 0.1 * np.eye(4)
    assert np.allclose(m, want)


def test_spectral_norm_against_dense():
    rng = np.random.default_rng(3)
    terms = {p: rng.uniform(-1, 1) for p in iter_all_paulis(2)}
    obs = Observable(2, terms)
    dense = np.abs(np.linalg.eigvalsh(obs.matrix())).max()
    assert obs.spectral_norm() == pytest.approx(dense, abs=1e-12)
    normed = obs.scaled(1 / obs.spectral_norm())
    assert normed.spectral_norm() == pytest.approx(1.0, abs=1e-12)


def test_locality_and_degree():
    obs = heisenberg_observable(2)
    assert obs.locality == 2
    # qubit 0 carries XX, YY, ZZ and the field term: the degree is 4
    terms_on_qubit = (letter_codes(list(obs.terms()), 2) != 0).sum(axis=0)
    assert terms_on_qubit.tolist() == [4, 3]


def test_locality_norm_constant_spots():
    # closed form: sqrt(2 k!) / (sqrt(d) k^(k+2.5) (2 sqrt6 + 4 sqrt3)^k)
    base = 2 * math.sqrt(6) + 4 * math.sqrt(3)
    want11 = math.sqrt(2.0) / base
    assert locality_norm_constant(1, 1) == pytest.approx(want11, rel=1e-12)
    # frozen high-precision evaluation at the planner's pinned parameters
    assert locality_norm_constant(2, 4) == pytest.approx(
        3.15938394686569201048263245610799786e-4, rel=1e-12
    )
    with pytest.raises(ValueError):
        locality_norm_constant(0, 1)
    with pytest.raises(ValueError):
        locality_norm_constant(2, 0)


def test_heisenberg_structure():
    obs = heisenberg_observable(3)
    # bonds (0,1) and (1,2), field on qubits 0 and 1
    assert obs.coefficient(P("XXI")) == pytest.approx(0.27)
    assert obs.coefficient(P("IYY")) == pytest.approx(0.42)
    assert obs.coefficient(P("IZZ")) == pytest.approx(0.76)
    assert obs.coefficient(P("ZII")) == pytest.approx(0.6)
    assert obs.coefficient(P("IZI")) == pytest.approx(0.6)
    assert obs.coefficient(P("IIZ")) == 0.0


@pytest.mark.parametrize("n", range(2, 7))
def test_heisenberg_equals_its_own_listing(n):
    """The built-in chain is the observable file that lists its terms: the
    same strings, coefficients and term order."""
    obs = heisenberg_observable(n)
    listing = "".join(f"{p.to_label()} {c!r}\n" for p, c in obs.terms().items())
    assert list(Observable.from_text(listing).terms().items()) == list(obs.terms().items())


def test_heisenberg_two_qubit_values():
    obs = heisenberg_observable(2)
    assert obs.coefficient(P("XX")) == pytest.approx(0.27)
    assert obs.coefficient(P("YY")) == pytest.approx(0.42)
    assert obs.coefficient(P("ZZ")) == pytest.approx(0.76)
    assert obs.coefficient(P("ZI")) == pytest.approx(0.6)
    assert len(obs.terms()) == 4
