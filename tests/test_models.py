"""Matter laws: torque algebra, density-matrix packing, structure probes.

Oracles: hand-rolled cross products and dense complex matrix algebra,
written independently of the vectorized implementations they check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maxmat import (
    BlochModel,
    LandauLifschitzModel,
    MatterModel,
    pack_rho,
    unpack_rho,
)
from maxmat.models import LIOUVILLIAN_BUDGET_BYTES, check_level_count
from maxmat.scenario import _ladder_dipole

finite = st.floats(-3.0, 3.0, allow_nan=False)


def check_structure(
    model: MatterModel,
    rng: np.random.Generator,
    n_voxels: int = 64,
    n_samples: int = 8,
) -> dict[str, float]:
    """Probe the three structural guarantees on random data.

    Returns worst-case defects: relative affinity error in the field
    argument, norm of the tendency at v = 0, the signed one-sided growth
    excess F . v - K |v|^2 (nonpositive up to roundoff when honest),
    linearity defect of the source map, and sensitivity to the field slot
    the model is not coupled to (must be zero).
    """
    worst = {
        "affine": 0.0,
        "zero_state": 0.0,
        "growth_excess": -np.inf,
        "source_linear": 0.0,
        "uncoupled_slot": 0.0,
    }
    other = slice(3, 6) if model.em_slot == 1 else slice(0, 3)
    for _ in range(n_samples):
        v = rng.standard_normal((model.dim, n_voxels))
        ua = rng.standard_normal((6, n_voxels))
        ub = rng.standard_normal((6, n_voxels))
        a, b = rng.standard_normal(2)
        f0 = model.eval_F(v, np.zeros_like(ua))
        lhs = model.eval_F(v, a * ua + b * ub)
        rhs = a * model.eval_F(v, ua) + b * model.eval_F(v, ub) + (1.0 - a - b) * f0
        scale = max(float(np.abs(lhs).max()), 1e-30)
        worst["affine"] = max(worst["affine"], float(np.abs(lhs - rhs).max()) / scale)

        fz = model.eval_F(np.zeros_like(v), ua)
        worst["zero_state"] = max(worst["zero_state"], float(np.abs(fz).max()))

        f = model.eval_F(v, ua)
        excess = np.einsum("dm,dm->m", f, v) - model.growth_bound * np.einsum(
            "dm,dm->m", v, v
        )
        worst["growth_excess"] = max(worst["growth_excess"], float(excess.max()))

        perturbed = ua.copy()
        perturbed[other] = rng.standard_normal((3, n_voxels))
        df = model.eval_F(v, perturbed) - f
        fscale = max(float(np.abs(f).max()), 1e-30)
        worst["uncoupled_slot"] = max(worst["uncoupled_slot"], float(np.abs(df).max()) / fscale)

        kd = 1.0 + rng.random(n_voxels)
        wa = rng.standard_normal((model.dim, n_voxels))
        wb = rng.standard_normal((model.dim, n_voxels))
        slhs = model.source_from_matter(a * wa + b * wb, kd)
        srhs = a * model.source_from_matter(wa, kd) + b * model.source_from_matter(wb, kd)
        sscale = max(float(np.abs(slhs).max()), 1e-30)
        worst["source_linear"] = max(worst["source_linear"], float(np.abs(slhs - srhs).max()) / sscale)
    return worst


def random_hermitian(rng, n, m):
    a = rng.standard_normal((n, n, m)) + 1j * rng.standard_normal((n, n, m))
    return 0.5 * (a + a.conj().transpose(1, 0, 2))


# ------------------------------------------------------------ LL model


class TestLandauLifschitz:
    def make(self, **kw):
        kw.setdefault("gyro", 2.0)
        kw.setdefault("damping", 0.3)
        kw.setdefault("aniso", 1.5)
        kw.setdefault("axis", (0.0, 0.0, 1.0))
        kw.setdefault("h_ext", (0.1, 0.0, 0.7))
        return LandauLifschitzModel(**kw)

    def test_total_field_assembly(self, rng):
        model = self.make()
        m = rng.standard_normal((3, 5))
        h = rng.standard_normal((3, 5))
        got = model.total_field(m, h)
        for j in range(5):
            expect = h[:, j] + np.array([0.1, 0.0, 0.7]) + 1.5 * m[2, j] * np.array([0, 0, 1.0])
            np.testing.assert_allclose(got[:, j], expect, atol=1e-14)

    def test_eval_F_against_per_voxel_cross(self, rng):
        model = self.make()
        v = rng.standard_normal((3, 7))
        em = rng.standard_normal((6, 7))
        got = model.eval_F(v, em)
        for j in range(7):
            ht = model.total_field(v[:, j : j + 1], em[0:3, j : j + 1])[:, 0]
            t = np.cross(v[:, j], ht)
            expect = 2.0 * t - 0.3 * np.cross(v[:, j], t)
            np.testing.assert_allclose(got[:, j], expect, atol=1e-13)

    def test_tendency_orthogonal_to_state(self, rng):
        # both torque terms are perpendicular to M, for any |M|
        model = self.make()
        v = rng.standard_normal((3, 50))
        em = rng.standard_normal((6, 50))
        f = model.eval_F(v, em)
        assert np.abs(np.sum(f * v, axis=0)).max() < 1e-12

    def test_dissipation_identity(self, rng):
        # on the unit sphere, M' . H_T = damping |M ^ H_T|^2
        model = self.make()
        v = rng.standard_normal((3, 40))
        v /= np.linalg.norm(v, axis=0)
        em = rng.standard_normal((6, 40))
        f = model.eval_F(v, em)
        ht = model.total_field(v, em[0:3])
        lhs = np.sum(f * ht, axis=0)
        cross = np.cross(v.T, ht.T).T
        rhs = 0.3 * np.sum(cross * cross, axis=0)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_tendency_magnitude_identity(self, rng):
        # |M'|^2 = (gyro^2 + damping^2) |M ^ H_T|^2 on the unit sphere
        model = self.make()
        v = rng.standard_normal((3, 40))
        v /= np.linalg.norm(v, axis=0)
        em = rng.standard_normal((6, 40))
        f = model.eval_F(v, em)
        ht = model.total_field(v, em[0:3])
        cross = np.cross(v.T, ht.T).T
        lhs = np.sum(f * f, axis=0)
        rhs = (2.0**2 + 0.3**2) * np.sum(cross * cross, axis=0)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_ignores_electric_slot(self, rng):
        model = self.make()
        v = rng.standard_normal((3, 6))
        em = rng.standard_normal((6, 6))
        em2 = em.copy()
        em2[3:6] = rng.standard_normal((3, 6))
        np.testing.assert_array_equal(model.eval_F(v, em), model.eval_F(v, em2))

    def test_source_is_negated_tendency(self, rng):
        model = self.make()
        w = rng.standard_normal((3, 6))
        kd = 1.0 + rng.random(6)
        np.testing.assert_array_equal(model.source_from_matter(w, kd), -w)

    @settings(max_examples=50, deadline=None)
    @given(
        gyro=finite,
        damping=st.floats(0.0, 3.0),
        aniso=st.floats(0.0, 3.0),
        mv=arrays(np.float64, (3,), elements=finite),
        hv=arrays(np.float64, (3,), elements=finite),
    )
    def test_orthogonality_property(self, gyro, damping, aniso, mv, hv):
        model = LandauLifschitzModel(
            gyro=gyro, damping=damping, aniso=aniso, axis=(0, 0, 1), h_ext=(0, 0, 1)
        )
        v = mv.reshape(3, 1)
        em = np.concatenate([hv, np.zeros(3)]).reshape(6, 1)
        f = model.eval_F(v, em)
        assert abs(float(np.sum(f * v))) <= 1e-9 * max(1.0, float(np.sum(v * v))) * max(
            1.0, float(np.abs(f).max())
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LandauLifschitzModel(damping=-0.1)
        with pytest.raises(ValueError):
            LandauLifschitzModel(aniso=-1.0)
        with pytest.raises(ValueError):
            LandauLifschitzModel(aniso=1.0, axis=(0.0, 0.0, 0.0))

    def test_structure_probe(self, rng):
        worst = check_structure(self.make(), rng)
        assert worst["affine"] < 1e-12
        assert worst["zero_state"] == 0.0
        assert worst["growth_excess"] < 1e-12
        assert worst["source_linear"] < 1e-12
        assert worst["uncoupled_slot"] == 0.0


# ------------------------------------------------------- packing layer


class TestPacking:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_round_trip(self, rng, n):
        rho = random_hermitian(rng, n, 4)
        v = pack_rho(rho)
        assert v.shape == (n * n, 4)
        assert v.dtype == np.float64
        back = unpack_rho(v, n)
        np.testing.assert_allclose(back, rho, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 4])
    def test_isometry(self, rng, n):
        rho = random_hermitian(rng, n, 6)
        v = pack_rho(rho)
        frob = np.sqrt(np.sum(np.abs(rho) ** 2, axis=(0, 1)))
        eucl = np.linalg.norm(v, axis=0)
        np.testing.assert_allclose(eucl, frob, rtol=1e-13)

    def test_unpack_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            unpack_rho(np.zeros((5, 2)), 2)


# ----------------------------------------------------------- Bloch model


class TestBloch:
    def make(self, relax=0.4):
        d = np.zeros((3, 3, 3), dtype=complex)
        d[0, 0, 1] = d[0, 1, 0] = 1.0
        d[1, 1, 2] = 0.5j
        d[1, 2, 1] = -0.5j
        d[2, 0, 2] = d[2, 2, 0] = 0.25
        return BlochModel(levels=(0.0, 1.0, 2.5), dipole=d, relax=relax)

    def test_eval_F_against_dense_matrix_algebra(self, rng):
        model = self.make()
        n, m = 3, 5
        rho = random_hermitian(rng, n, m)
        em = rng.standard_normal((6, m))
        got = unpack_rho(model.eval_F(pack_rho(rho), em), n)
        h0 = np.diag([0.0, 1.0, 2.5]).astype(complex)
        for j in range(m):
            ham = h0 - sum(em[3 + a, j] * model._dipole[a] for a in range(3))
            r = rho[:, :, j]
            expect = -1j * (ham @ r - r @ ham)
            expect = expect - 0.4 * (r - np.diag(np.diag(r)))
            np.testing.assert_allclose(got[:, :, j], expect, atol=1e-12)

    def test_eval_F_is_bitwise_the_sparse_product_with_a_kept_buffer(self, rng):
        # the product goes to a buffer kept per thread and voxel count;
        # results of earlier calls, other counts and other threads stay intact
        import threading

        model = self.make()
        em = rng.standard_normal((6, 8))

        def reference(v, em):
            terms = (model.stack @ v).reshape(1 + model.rank, model.dim, -1)
            terms[1:] *= (model.coupling @ em[3:6])[:, None, :]
            return terms.sum(axis=0)

        vs = [pack_rho(random_hermitian(rng, 3, m)) for m in (8, 8, 5)]
        got = [model.eval_F(v, em[:, : v.shape[1]]) for v in vs]
        for v, g in zip(vs, got):
            np.testing.assert_array_equal(g, reference(v, em[:, : v.shape[1]]))
        assert not np.array_equal(got[0], got[1])
        # a strided view of the state gives the same bits
        wide = np.zeros((model.dim, 16))
        wide[:, ::2] = vs[0]
        np.testing.assert_array_equal(model.eval_F(wide[:, ::2], em), got[0])
        other = []
        worker = threading.Thread(target=lambda: other.append(model.eval_F(vs[1], em)))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        np.testing.assert_array_equal(other[0], got[1])
        with pytest.raises(ValueError, match="shape"):
            model.eval_F(np.zeros((model.dim + 1, 8)), em)

    def test_trace_is_conserved(self, rng):
        model = self.make()
        v = pack_rho(random_hermitian(rng, 3, 8))
        em = rng.standard_normal((6, 8))
        f = model.eval_F(v, em)
        # the first n packed rows are the diagonal
        assert np.abs(f[:3].sum(axis=0)).max() < 1e-12

    def test_commutator_preserves_frobenius_norm(self, rng):
        model = self.make(relax=0.0)
        v = pack_rho(random_hermitian(rng, 3, 8))
        em = rng.standard_normal((6, 8))
        f = model.eval_F(v, em)
        assert np.abs(np.sum(f * v, axis=0)).max() < 1e-11

    def test_relaxation_shrinks(self, rng):
        model = self.make(relax=0.7)
        v = pack_rho(random_hermitian(rng, 3, 8))
        em = rng.standard_normal((6, 8))
        f = model.eval_F(v, em)
        assert np.all(np.sum(f * v, axis=0) < 1e-11)

    def test_polarization_matches_trace(self, rng):
        model = self.make()
        rho = random_hermitian(rng, 3, 4)
        got = model.polarization(pack_rho(rho))
        for j in range(4):
            for a in range(3):
                expect = np.trace(model._dipole[a] @ rho[:, :, j]).real
                assert got[a, j] == pytest.approx(expect, abs=1e-13)

    def test_ignores_magnetic_slot(self, rng):
        model = self.make()
        v = pack_rho(random_hermitian(rng, 3, 6))
        em = rng.standard_normal((6, 6))
        em2 = em.copy()
        em2[0:3] = rng.standard_normal((3, 6))
        np.testing.assert_array_equal(model.eval_F(v, em), model.eval_F(v, em2))

    def test_parameter_validation(self):
        good = np.zeros((3, 2, 2), dtype=complex)
        with pytest.raises(ValueError):
            BlochModel(levels=(1.0,), dipole=np.zeros((3, 1, 1)))
        with pytest.raises(ValueError):
            BlochModel(levels=(0.0, 1.0), dipole=np.zeros((3, 3, 3)))
        bad = good.copy()
        bad[0, 0, 1] = 1.0  # not Hermitian
        with pytest.raises(ValueError):
            BlochModel(levels=(0.0, 1.0), dipole=bad)
        with pytest.raises(ValueError):
            BlochModel(levels=(0.0, 1.0), dipole=good, relax=-1.0)

    def test_structure_probe(self, rng):
        # the factored operator both on a full-rank dipole and on the
        # scenario parser's polarization-times-ladder shape
        levels, dipole, relax, _ = BLOCH_CASES["ladder6"]
        ladder = BlochModel(levels=tuple(levels), dipole=dipole, relax=relax)
        for model in (self.make(), ladder):
            worst = check_structure(model, rng, n_voxels=16)
            assert worst["affine"] < 1e-11
            assert worst["zero_state"] == 0.0
            assert worst["growth_excess"] < 1e-11
            assert worst["source_linear"] < 1e-12
            assert worst["uncoupled_slot"] == 0.0


# ------------------------------------------- Bloch law as generators


def random_dipole(rng, n):
    return np.moveaxis(random_hermitian(rng, n, 3), 2, 0)


def generator_defects(gens, relax):
    """Structural defects of the (4, N^2, N^2) Bloch generators, relative
    to their largest entry: skewness of the field generators L_a, skewness
    of L0 with its relaxation added back on the packed off-diagonal
    coordinates, and the largest trace row sum (first N rows) of any
    generator."""
    dim = gens.shape[1]
    n = int(round(np.sqrt(dim)))
    relaxation = relax * np.diag(np.r_[np.zeros(n), np.ones(dim - n)])
    scale = np.abs(gens).max()
    level = gens[0] + relaxation
    return {
        "field_skew": max(np.abs(g + g.T).max() for g in gens[1:]) / scale,
        "level_skew": np.abs(level + level.T).max() / scale,
        "trace": np.abs(gens[:, :n].sum(axis=1)).max() / scale,
    }


def reference_bloch_law(levels, dipole, relax, rho, e):
    """-i [H0 - E.D, rho] - relax offdiag(rho), voxel by voxel, and tr(D rho)."""
    n, _, m = rho.shape
    drho = np.empty_like(rho)
    pol = np.empty((3, m))
    for j in range(m):
        ham = np.diag(levels) - sum(e[a, j] * dipole[a] for a in range(3))
        r = rho[:, :, j]
        drho[:, :, j] = -1j * (ham @ r - r @ ham) - relax * (r - np.diag(np.diag(r)))
        pol[:, j] = [np.trace(dipole[a] @ r).real for a in range(3)]
    return drho, pol


def _bloch_cases():
    """(levels, dipole, relax, rank of the field generators) by name: random
    dipoles, the scenario ladder, two ladders summed, and no coupling."""
    rng = np.random.default_rng(7)
    cases = {
        f"random{n}": (np.sort(rng.uniform(0.0, 5.0, n)), random_dipole(rng, n), 0.3 * n, 3)
        for n in (2, 3, 6)
    }
    levels = (0.0, 1.0, 2.1, 3.3, 4.6, 6.0)
    ladder = _ladder_dipole(levels, (1.0, 0.8, 0.6, 0.5, 0.4), (0.6, 0.8, 0.0))
    cases["ladder6"] = (np.asarray(levels), ladder, 0.2, 1)
    second = _ladder_dipole(levels, (0.2, 0.9, 0.1, 0.7, 0.3), (0.0, 0.6, 0.8))
    cases["two_ladders6"] = (np.asarray(levels), ladder + second, 0.2, 2)
    uncoupled = _ladder_dipole(levels, (1.0, 0.8, 0.6, 0.5, 0.4), (0.0, 0.0, 0.0))
    cases["uncoupled6"] = (np.asarray(levels), uncoupled, 0.2, 0)
    return cases


BLOCH_CASES = _bloch_cases()


class TestBlochGenerators:
    @pytest.mark.parametrize("case", sorted(BLOCH_CASES))
    def test_eval_F_and_polarization_match_per_voxel_reference(self, rng, case):
        levels, dipole, relax, rank = BLOCH_CASES[case]
        model = BlochModel(levels=tuple(levels), dipole=dipole, relax=relax)
        assert model.rank == rank
        n, m = levels.size, 9
        rho = random_hermitian(rng, n, m)
        em = rng.standard_normal((6, m))
        drho, pol = reference_bloch_law(levels, dipole, relax, rho, em[3:6])
        want = pack_rho(drho)
        got = model.eval_F(pack_rho(rho), em)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        got_pol = model.polarization(pack_rho(rho))
        assert np.abs(got_pol - pol).max() <= 1e-13 * np.abs(pol).max()

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_generators_skew_and_trace_free(self, rng, n):
        # The structural reason for growth_bound = 0 and trace transport.
        relax = 0.7
        model = BlochModel(levels=tuple(rng.uniform(0, 3, n)), dipole=random_dipole(rng, n),
                           relax=relax)
        gens = model.generators
        assert gens.shape == (4, n * n, n * n)
        assert all(np.abs(g).max() > 0.1 for g in gens)
        for name, defect in generator_defects(gens, relax).items():
            assert defect < 1e-14, name

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_generator_checks_fail_on_perturbed_generators(self, rng, n):
        relax = 0.7
        model = BlochModel(levels=tuple(rng.uniform(0, 3, n)), dipole=random_dipole(rng, n),
                           relax=relax)
        dim, k = n * n, n  # packed coordinate k is off-diagonal
        symmetric = np.zeros((dim, dim))
        symmetric[k, dim - 1] = symmetric[dim - 1, k] = 1e-6
        trace_only = np.zeros((dim, dim))
        trace_only[0, k], trace_only[k, 0] = 1e-6, -1e-6  # skew, but row 0 is a trace row
        for which, bump, broken in [
            (2, symmetric, "field_skew"),
            (0, symmetric, "level_skew"),
            (0, -relax * np.diag(np.r_[np.zeros(n), np.ones(dim - n)]), "level_skew"),
            (1, trace_only, "trace"),
        ]:
            gens = model.generators.copy()
            gens[which] += bump
            defects = generator_defects(gens, relax)
            assert defects[broken] > 1e-8, (which, broken)
            assert all(d < 1e-14 for key, d in defects.items() if key != broken)

    def test_level_count_budget(self):
        most = int((LIOUVILLIAN_BUDGET_BYTES / 32) ** 0.25)
        check_level_count(most)
        with pytest.raises(ValueError, match="budget"):
            check_level_count(most + 1)
        with pytest.raises(ValueError, match="budget"):
            BlochModel(levels=tuple(range(most + 1)), dipole=np.zeros((3, 1, 1)))
