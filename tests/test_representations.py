"""Irrep extraction, orthogonality, and projective representation gauges."""
import numpy as np
import pytest
from conftest import dense_left_translations, dense_regular, orthogonality_defect

from nlgc import sbd
from nlgc._linalg import dagger, weyl_operator_basis
from nlgc.errors import ValidationError
from nlgc.groups import (FactorSystem, alternating, builtin_catalog, cyclic,
                         dihedral, heisenberg, quaternion,
                         quotient_by_central_cyclic, symmetric)
from nlgc.representations import (REP_TOL, Representation, _defects, _validate_all,
                                  central_irreps,
                                  factor_phases_of, gauge_normalize,
                                  irrep_dimensions, irreps_of,
                                  pauli_projective_rep,
                                  projective_irreps_from_extension)


def commutant_dim(mats):
    d = mats[0].shape[0]
    rows = []
    for m in list(mats) + [m.conj().T for m in mats]:
        rows.append(np.kron(np.eye(d), m) - np.kron(m.T, np.eye(d)))
    return d * d - np.linalg.matrix_rank(np.vstack(rows), tol=1e-9)


def test_s3_irrep_dimensions_are_1_1_2():
    assert irrep_dimensions(symmetric(3)) == [1, 1, 2]


def test_dimension_sum_rule_across_catalog():
    for g in builtin_catalog(16):
        dims = irrep_dimensions(g)
        assert sum(d * d for d in dims) == g.order, g.name


def test_irreps_are_genuinely_irreducible():
    for g in [symmetric(3), quaternion(), dihedral(4)]:
        for rep in irreps_of(g):
            rep.validate()
            assert commutant_dim(list(rep.matrices)) == 1


def test_orthogonality_relations():
    for g in [cyclic(5), symmetric(3), dihedral(4), quaternion()]:
        assert orthogonality_defect(irreps_of(g)) < 1e-9


def test_character_of_identity_is_the_dimension():
    for rep in irreps_of(symmetric(4)):
        chars = rep.characters()
        assert abs(chars[rep.group.identity] - rep.dim) < 1e-10


def test_regular_representation_multiplies_correctly():
    g = dihedral(3)
    reg = Representation(g, FactorSystem.trivial(g.order), dense_regular(g))
    reg.validate()
    assert reg.dim == g.order
    # characters: |G| at the identity, 0 elsewhere
    chars = reg.characters()
    assert abs(chars[g.identity] - g.order) < 1e-10
    assert np.max(np.abs(np.delete(chars, g.identity))) < 1e-10


def test_pauli_rep_is_the_qubit_pauli_family():
    rep = pauli_projective_rep(2)
    group, fs = rep.group, rep.factor
    rep.validate()
    assert group.order == 4
    fs.validate(group)
    assert not fs.is_trivial
    # each matrix squares to +1 in the standard gauge and traces to 0
    for f in range(4):
        if f == group.identity:
            continue
        m = rep.matrices[f]
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-10)
        assert abs(np.trace(m)) < 1e-10
    assert commutant_dim(list(rep.matrices)) == 1


def test_pauli_rep_qutrit_weyl_relations():
    rep = pauli_projective_rep(3)
    rep.validate()
    assert rep.group.order == 9
    assert rep.dim == 3
    assert commutant_dim(list(rep.matrices)) == 1
    # complete operator basis: Tr(P_f^dag P_g) = 3 delta_fg
    gram = np.einsum("fjk,gjk->fg", rep.matrices.conj(), rep.matrices)
    np.testing.assert_allclose(gram, 3 * np.eye(9), atol=1e-9)


def test_projective_irreps_from_d4_over_its_center():
    l = dihedral(4)
    z = [x for x in l.center if x != l.identity][0]
    quotient, picked = projective_irreps_from_extension(irreps_of(l), z)
    assert quotient.order == 4
    assert sorted(p.dim for p in picked) == [2]
    gauged, fs = gauge_normalize([p.matrices for p in picked], quotient)
    fs.validate(quotient)
    rep = Representation(quotient, fs, gauged[0])
    rep.validate()
    # a 2-dim projective irrep of C2xC2 is the Pauli family up to gauge
    chars = np.abs(rep.characters())
    assert abs(chars[quotient.identity] - 2) < 1e-9
    assert np.max(np.delete(chars, quotient.identity)) < 1e-9


def test_factor_phases_read_back_from_matrices():
    rep = pauli_projective_rep(2)
    mu = factor_phases_of(rep.matrices, rep.group)
    np.testing.assert_allclose(mu, rep.factor.phases, atol=1e-10)


def _factor_phases_loop(matrices, group):
    """factor_phases_of as it read before the (f, g) stack: one row f at a time."""
    n, d = group.order, matrices.shape[1]
    mu = np.zeros((n, n), dtype=complex)
    for f in range(n):
        prods = np.einsum("ij,gjk->gik", matrices[f], matrices)
        mu[f, :] = np.einsum("gji,gjk->g", matrices[group.table[f]].conj(), prods) / d
    return mu


@pytest.mark.parametrize("case", ["pauli-2", "pauli-3", "pauli-5", "A4-3dim", "Heis3-quotient"])
def test_factor_phases_equal_the_row_loop_bytewise(case):
    if case.startswith("pauli"):
        rep = pauli_projective_rep(int(case[-1]))
        group = rep.group
    elif case == "A4-3dim":
        rep = max(irreps_of(alternating(4)), key=lambda r: r.dim)
        group = rep.group
    else:
        l = heisenberg(3)
        z = [x for x in l.center if l.element_orders[x] == 3][0]
        _, (rep,) = projective_irreps_from_extension(irreps_of(l), z)
        group = rep.group
    rng = np.random.default_rng(3)
    # a random gauge makes every phase a generic complex number
    mats = rep.matrices * np.exp(2j * np.pi * rng.random(group.order))[:, None, None]
    mats[group.identity] = rep.matrices[group.identity]
    assert factor_phases_of(mats, group).tobytes() == _factor_phases_loop(mats, group).tobytes()


@pytest.mark.parametrize("case", ["A4"])
def test_left_translations_commute_with_the_regular_representation(case):
    group = alternating(4)
    n = group.order
    r = dense_regular(group)
    l = dense_left_translations(group)
    assert l.shape == (n, n, n)
    assert np.max(np.abs(l[:, None] @ r[None] - r[None] @ l[:, None])) <= 1e-12
    # n linearly independent operators: the commutant of R has dimension n
    assert np.linalg.matrix_rank(l.reshape(n, -1)) == n


def test_gauge_normalize_fixes_inverse_pairs():
    rep = pauli_projective_rep(2)
    group = rep.group
    rng = np.random.default_rng(0)
    # scramble the gauge with random phases, keep the identity clean
    phases = np.exp(2j * np.pi * rng.random(4))
    phases[group.identity] = 1.0
    scrambled = rep.matrices * phases[:, None, None]
    fixed, fs2 = gauge_normalize([scrambled], group)
    fs2.validate(group)
    for f in range(group.order):
        inv = group.inverses[f]
        np.testing.assert_allclose(fixed[0][inv], fixed[0][f].conj().T, atol=1e-9)


def test_twisted_dimension_sum_rule():
    # D4 over its central z: the Pauli factor system on C2xC2, whose unique
    # projective irrep has dim 2
    l = dihedral(4)
    z = next(x for x in l.center if x != l.identity)
    group, irreps = projective_irreps_from_extension(irreps_of(l), z)
    assert not irreps[0].factor.is_trivial
    dims = [r.dim for r in irreps]
    assert dims == [2]
    assert sum(d * d for d in dims) == group.order


def test_heisenberg_extension_gives_qutrit_projective_irrep():
    l = heisenberg(3)
    assert l.order == 27
    candidates = [x for x in l.center if l.element_orders[x] == 3]
    quotient, picked = projective_irreps_from_extension(irreps_of(l), candidates[0])
    assert quotient.order == 9
    assert sorted(p.dim for p in picked) == [3]


def test_gauge_normalize_rejects_a_phase_on_the_identity():
    rep = pauli_projective_rep(3)
    group = rep.group
    matrices = rep.matrices.copy()
    matrices[group.identity] *= np.exp(0.3j)
    with pytest.raises(ValidationError, match="must be 1 on the identity"):
        gauge_normalize([matrices], group)


def test_central_irreps_compare_with_an_absolute_tolerance():
    # D4's 2-dim irrep represents its central z as -I; 5e-6 on the diagonal
    # is inside allclose's default rtol of 1e-5 but far outside 1e-8
    l = dihedral(4)
    z = next(x for x in l.center if x != l.identity)
    rep = next(r for r in irreps_of(l) if r.dim == 2)
    assert len(central_irreps([rep], z)) == 1
    drifted = rep.matrices.copy()
    drifted[z] += 5e-6 * np.eye(2)
    assert central_irreps([Representation(l, rep.factor, drifted)], z) == []


@pytest.mark.parametrize("where", ["identity", "other element"])
def test_nan_matrices_have_no_factor_system(where):
    rep = pauli_projective_rep(2)
    group = rep.group
    matrices = rep.matrices.copy()
    matrices[0 if where == "identity" else 2, 1, 0] = np.nan
    with pytest.raises(ValidationError):
        factor_phases_of(matrices, group)
    with pytest.raises(ValidationError):
        gauge_normalize([matrices], group)


def test_representation_validate_rejects_wrong_factor():
    rep = pauli_projective_rep(2)
    with pytest.raises(ValidationError):
        Representation(rep.group, FactorSystem.trivial(rep.group.order),
                       rep.matrices).validate()


@pytest.mark.parametrize("where", ["matrices", "one matrix entry", "factor phases"])
def test_nan_representation_fails_validation(where):
    rep = pauli_projective_rep(2)
    matrices, phases = rep.matrices.copy(), rep.factor.phases.copy()
    if where == "matrices":
        matrices[:] = np.nan
    elif where == "one matrix entry":
        matrices[3, 0, 1] = np.nan
    else:
        phases[1, 3] = np.nan
    with pytest.raises(ValidationError):
        Representation(rep.group, FactorSystem(phases), matrices).validate()


def _dense_irreps(group, seed):
    """irreps_of's matrices as the dense regular representation gives them:
    split R on the generators with the left translations as the commutant,
    then evaluate S†R(f)S with R dense."""
    r = dense_regular(group)
    on_gens = r[list(group.generating_set or (group.identity,))]
    bs = sbd.classify_equivalence(
        sbd._finest_split(on_gens, REP_TOL, seed, commutant=dense_left_translations(group)),
        on_gens, REP_TOL)
    slices = bs.block_slices()
    return [np.einsum("ij,fjk,kl->fil", dagger(s), r, s)
            for s in (bs.basis_change[:, slices[c.representative]] for c in bs.classes)]


@pytest.mark.parametrize("seed", [0, 1, 2, 5])
def test_irreps_equal_the_dense_regular_reference_bitwise(seed):
    for group in builtin_catalog():
        dense = _dense_irreps(group, seed)
        irreps = irreps_of(group, seed=seed)
        assert len(irreps) == len(dense), group.name
        for rep, ref in zip(irreps, dense):
            assert rep.matrices.tobytes() == ref.tobytes(), group.name


def test_irreps_are_grouped_without_intertwiners_bitwise(monkeypatch):
    # equal characters mean equivalent irreps: the classes, their order and
    # their representatives are those of the intertwiner classification
    dense = {g.name: _dense_irreps(g, 0) for g in builtin_catalog()}

    def refuse(*args, **kwargs):
        raise AssertionError("irreps_of ran the intertwiner classification")
    monkeypatch.setattr(sbd, "classify_equivalence", refuse)
    monkeypatch.setattr(sbd, "_intertwiner", refuse)
    for group in builtin_catalog():
        irreps = irreps_of(group)
        assert [r.matrices.tobytes() for r in irreps] == [
            ref.tobytes() for ref in dense[group.name]], group.name


def _multiplication_defect_einsum(rep):
    m = rep.matrices
    products = np.einsum("fij,gjk->fgik", m, m)
    return float(np.max(np.abs(
        products - rep.factor.phases[:, :, None, None] * m[rep.group.table])))


def _unitarity_defect_einsum(rep):
    grams = np.einsum("fji,fjk->fik", rep.matrices.conj(), rep.matrices)
    return float(np.max(np.abs(grams - np.eye(rep.dim))))


def _validate_each(reps, tol):
    """_validate_all as irreps_of ran it before stacking: each representation
    on its own, the multiplication law before unitarity."""
    for r in reps:
        if not _multiplication_defect_einsum(r) <= tol:
            raise ValidationError("matrices violate the twisted multiplication law")
        if not _unitarity_defect_einsum(r) <= tol:
            raise ValidationError("representation matrices must be unitary")


def _validation_outcome(check, reps, tol):
    try:
        check(reps, tol)
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("case", ["S4", "Q8", "C6", "D4/z"])
def test_stacked_validation_equals_validating_each(case):
    if case == "D4/z":
        l = dihedral(4)
        reps = projective_irreps_from_extension(
            irreps_of(l), next(z for z in l.center if z != l.identity))[1]
    else:
        reps = irreps_of({"S4": symmetric(4), "Q8": quaternion(), "C6": cyclic(6)}[case])
    group, factor = reps[0].group, reps[0].factor
    variants = [list(reps)]
    for i, rep in enumerate(reps):
        d = rep.dim
        negated, nan = rep.matrices.copy(), rep.matrices.copy()
        negated[-1] *= -1
        nan[-1, 0, d - 1] = np.nan
        # a non-unitary similarity keeps the multiplication law; a 1-dim one scales
        s = np.eye(d) + 0.5 * np.eye(d, k=1) if d > 1 else 2 * np.eye(1)
        similar = s @ rep.matrices @ np.linalg.inv(s)
        for broken in (negated, nan, similar if d > 1 else 2 * rep.matrices):
            variants.append(reps[:i] + [Representation(group, factor, broken)] + reps[i + 1:])
    # two broken sets: the later one's failure must not mask the earlier one's
    variants.append([variants[-1][-1]] + variants[1][1:-1] + [variants[1][0]])
    outcomes = [_validation_outcome(_validate_each, v, 1e-7) for v in variants]
    assert [_validation_outcome(_validate_all, v, 1e-7) for v in variants] == outcomes
    assert None in outcomes and "matrices violate the twisted multiplication law" in outcomes
    if case != "C6":
        assert "representation matrices must be unitary" in outcomes


def _defect_cases():
    """Every catalog irrep, the projective irreps of the 13 (extension, z)
    pairs, and the shift/clock representations of dimension 2 to 4."""
    for g in builtin_catalog():
        irreps = irreps_of(g)
        yield from irreps
        for z in ([] if g.is_abelian else g.center):
            if z != g.identity:
                yield from projective_irreps_from_extension(irreps, z)[1]
    for d in range(2, 5):
        yield pauli_projective_rep(d)


def test_stacked_defects_equal_the_einsum_forms():
    rng = np.random.default_rng(11)
    for rep in _defect_cases():
        # a 1e-3 perturbation makes both defects large enough to compare
        noise = rng.standard_normal(rep.matrices.shape) + 1j * rng.standard_normal(rep.matrices.shape)
        for mats in (rep.matrices, rep.matrices + 1e-3 * noise):
            r = Representation(rep.group, rep.factor, mats)
            mult, unit = _defects(r.group, r.factor, r.matrices[None])
            assert abs(mult[0] - _multiplication_defect_einsum(r)) <= 1e-12
            assert abs(unit[0] - _unitarity_defect_einsum(r)) <= 1e-12


@pytest.mark.parametrize("case", ["S3-2dim", "C5-1dim", "pauli-3"])
def test_a_negated_matrix_breaks_the_multiplication_law(case):
    if case == "S3-2dim":
        rep = max(irreps_of(symmetric(3)), key=lambda r: r.dim)
    elif case == "C5-1dim":
        rep = irreps_of(cyclic(5))[0]
    else:
        rep = pauli_projective_rep(3)
    rep.validate()
    for f in range(rep.group.order):
        if f != rep.group.identity:
            matrices = rep.matrices.copy()
            matrices[f] *= -1
            with pytest.raises(ValidationError, match="multiplication law"):
                Representation(rep.group, rep.factor, matrices).validate()


def _gauge_loop(matrices_list, group):
    """gauge_normalize as an element-by-element loop over inverse pairs."""
    mu = factor_phases_of(matrices_list[0], group)
    c = np.ones(group.order, dtype=complex)
    for f in range(group.order):
        g = group.inverses[f]
        if f == group.identity:
            continue
        if f == g:
            c[f] = np.exp(-0.5j * np.angle(mu[f, f]))
        elif f < g:
            c[f] = 1.0
            c[g] = 1.0 / mu[f, g]
    new_list = [mats * c[:, None, None] for mats in matrices_list]
    return new_list, factor_phases_of(new_list[0], group)


def _extension_inputs():
    """Every (extension, central z) pair of the catalog, as the central irreps
    of z on the coset lifts: what gauge_normalize gets from the extensions."""
    for l in builtin_catalog():
        if l.is_abelian:
            continue
        irreps = irreps_of(l)
        for z in l.center:
            if z != l.identity:
                quotient, lift, _, _ = quotient_by_central_cyclic(l, z)
                yield (f"{l.name}/{z}", quotient,
                       [ir.matrices[lift] for ir in central_irreps(irreps, z)])


def test_gauge_normalize_equals_the_element_loop_bitwise():
    cases = list(_extension_inputs())
    assert len(cases) == 13
    for name, group, picked in cases:
        gauged, fs = gauge_normalize(picked, group)
        looped, mu = _gauge_loop(picked, group)
        assert fs.phases.tobytes() == mu.tobytes(), name
        for m, ref in zip(gauged, looped, strict=True):
            assert m.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("d", range(2, 7))
def test_pauli_rep_equals_the_element_loop_bitwise(d):
    rep = pauli_projective_rep(d)
    looped, mu = _gauge_loop([weyl_operator_basis(d)], rep.group)
    assert rep.matrices.tobytes() == looped[0].tobytes()
    assert rep.factor.phases.tobytes() == mu.tobytes()
