"""Pauli-string algebra against dense matrix arithmetic."""

import itertools

import numpy as np
import pytest

from paulishadow.paulis import (
    LETTERS,
    PAULI_MATRICES,
    PauliString,
    enumerate_low_weight,
    iter_all_paulis,
    letter_codes,
    low_weight_count,
    pauli_from_index,
)

from reference import embed, pauli_index, restrict, symplectic_product


def test_label_round_trip():
    for label in ["I", "X", "ZZ", "XYZI", "-YX", "+IZ"]:
        p = PauliString.from_label(label)
        expected = label.lstrip("+")
        assert str(p) == expected
        assert PauliString.from_label(str(p)) == p


def test_from_label_rejects_garbage():
    for bad in ["", "-", "AB", "XQ", "X Z"]:
        with pytest.raises(ValueError):
            PauliString.from_label(bad)
    # lowercase is tolerated
    assert PauliString.from_label("xz") == PauliString.from_label("XZ")


def test_identity_and_weight():
    e = PauliString.identity(3)
    assert e.is_identity and e.weight == 0
    assert [e.letter(j) for j in range(3)] == ["I", "I", "I"]
    p = PauliString.from_label("XIZ")
    assert p.weight == 2
    assert [p.letter(j) for j in range(3)] == ["X", "I", "Z"]


def test_from_letters_matches_label():
    p = PauliString.from_letters(4, {0: "X", 3: "Z"})
    assert str(p) == "XIIZ"
    q = PauliString.from_letters(2, {1: "Y"}, sign=-1)
    assert str(q) == "-IY"
    with pytest.raises(ValueError):
        PauliString.from_letters(2, {5: "X"})


def kron_matrix(p):
    out = np.array([[p.sign]], dtype=np.complex128)
    for j in range(p.n):
        out = np.kron(out, PAULI_MATRICES[p.letter_code(j)])
    return out


def test_matrix_matches_kron():
    p = PauliString.from_label("XZ")
    want = np.kron(PAULI_MATRICES[1], PAULI_MATRICES[3])
    assert np.allclose(p.matrix(), want)
    assert np.allclose(PauliString.from_label("-XZ").matrix(), -want)
    # Entries are exactly 0, +-1 and +-i, so the signed permutation and the
    # Kronecker product agree exactly, for every string up to four qubits.
    for n in range(1, 5):
        for p in iter_all_paulis(n):
            for signed in (p, PauliString(n, p.x, p.z, -1)):
                np.testing.assert_array_equal(signed.matrix(), kron_matrix(signed))


def test_commutation_against_dense():
    for a, b in itertools.product(iter_all_paulis(2), repeat=2):
        comm = a.matrix() @ b.matrix() - b.matrix() @ a.matrix()
        commutes = bool(np.allclose(comm, 0, atol=1e-12))
        assert symplectic_product(a, b) == (0 if commutes else 1)


def test_restrict_and_embed():
    p = PauliString.from_label("-XIZY")
    r = restrict(p, (0, 3))
    assert str(r) == "-XY"
    # embedding the unsigned restriction back into place
    back = embed(r.unsigned(), 4, (0, 3))
    assert str(back) == "XIIY"
    # restriction order matters: (3, 0) swaps the letters
    assert str(restrict(p, (3, 0)).unsigned()) == "YX"
    with pytest.raises(ValueError):
        restrict(p, (0, 9))


def test_unsigned_and_negate():
    p = PauliString.from_label("-XZ")
    assert p.sign == -1
    assert p.unsigned().sign == 1
    assert PauliString(2, p.x, p.z, 1) == p.unsigned()
    assert hash(p) != hash(p.unsigned())


def test_immutability():
    p = PauliString.from_label("XZ")
    with pytest.raises(AttributeError):
        p.x = 0


def test_index_round_trip():
    # qubit 0 is the most significant base-4 digit
    assert pauli_index(PauliString.from_label("XII")) == 1 * 16
    assert pauli_index(PauliString.from_label("IIZ")) == 3
    for idx in range(64):
        assert pauli_index(pauli_from_index(3, idx)) == idx


def test_low_weight_count_closed_form():
    assert low_weight_count(2, 1) == 7
    assert low_weight_count(2, 2) == 16
    assert low_weight_count(3, 2) == 37
    assert low_weight_count(5, 0) == 1


def test_enumerate_low_weight_canonical_order():
    strings = list(enumerate_low_weight(2, 2))
    assert len(strings) == 16
    labels = [str(p) for p in strings]
    assert labels[0] == "II"
    # weight-1 block first, positions ascending, letters X < Y < Z
    assert labels[1:7] == ["XI", "YI", "ZI", "IX", "IY", "IZ"]
    assert labels[7:10] == ["XX", "XY", "XZ"]
    assert len(set(labels)) == 16
    weights = [p.weight for p in strings]
    assert weights == sorted(weights)


def test_enumerate_low_weight_subset_of_all():
    all3 = set(iter_all_paulis(3))
    low = list(enumerate_low_weight(3, 2))
    assert len(low) == 37
    assert set(low) <= all3
    assert all(p.weight <= 2 for p in low)


def test_letters_constant():
    assert LETTERS == "IXYZ"
    for code, letter in enumerate(LETTERS):
        p = PauliString.from_letters(1, {0: letter} if letter != "I" else {})
        assert p.letter_code(0) == code


def test_letter_codes_match_letter_code():
    def reference(strings, n):
        return np.array([[p.letter_code(j) for j in range(n)] for p in strings], dtype=np.int8)

    for n in range(1, 5):
        strings = list(iter_all_paulis(n))
        codes = letter_codes(strings, n)
        assert codes.dtype == np.int8
        np.testing.assert_array_equal(codes, reference(strings, n))
    rng = np.random.default_rng(5)
    strings = [pauli_from_index(12, int(i)) for i in rng.integers(0, 4**12, 300)]
    np.testing.assert_array_equal(letter_codes(strings, 12), reference(strings, 12))
    assert letter_codes([], 3).shape == (0, 3)


def test_letter_codes_reject_strings_of_another_width():
    with pytest.raises(ValueError, match="XZZ has 3 qubits, expected 2"):
        letter_codes([PauliString.from_label("XZ"), PauliString.from_label("XZZ")], 2)
    with pytest.raises(ValueError, match="has 10 qubits, expected 3"):
        letter_codes([PauliString.from_label("X" * 10)], 3)
