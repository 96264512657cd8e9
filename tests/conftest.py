"""Shared fixtures: small grids, random fields, and a reference system."""

import contextlib

import numpy as np
import pytest

from maxmat import (
    Coefficients,
    FourierWorkspace,
    Grid3,
    LandauLifschitzModel,
    SimSystem,
    box_mask,
    make_initial,
)
from maxmat import cores


@pytest.fixture(scope="session")
def grid8():
    return Grid3(8, 1.0)


@pytest.fixture(scope="session")
def grid16():
    return Grid3(16, 1.0)


@pytest.fixture(scope="session")
def ws8(grid8):
    return FourierWorkspace(grid8)


@pytest.fixture(scope="session")
def ws16(grid16):
    return FourierWorkspace(grid16)


@pytest.fixture(autouse=True)
def no_leaked_helper():
    """Fail a test that leaves a helper thread of its own on a process that
    has one usable core, where the package never starts one; then shut it
    down and put back the helper the process had, so later tests see the
    process as it is."""
    before, one_core = cores._helper, cores._usable_cores() == 1
    yield
    leaked = cores._helper
    if one_core and leaked is not None and leaked is not before:
        leaked.shutdown()
        cores._helper = before
        pytest.fail("the test left a helper thread running on one usable core")


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores, and a helper thread of the test's own, shut down
    after it, so that later tests see the helper the process really has."""
    monkeypatch.setattr(cores, "_usable_cores", lambda: 2)
    monkeypatch.setattr(cores, "_helper", None)
    yield
    if cores._helper is not None:
        cores._helper.shutdown()


@contextlib.contextmanager
def helper_held():
    """Hold the helper's token, so that every split runs inline."""
    with cores._helper_lock:
        yield


@pytest.fixture()
def rng():
    return np.random.default_rng(20260819)


def random_state(rng, grid, components=6):
    """White-noise field stack; deliberately has Nyquist-plane content."""
    return rng.standard_normal((components,) + grid.shape)


def count_transforms(monkeypatch, names=("forward", "inverse", "forward_box", "inverse_box")):
    """Patch the named FourierWorkspace transforms to record the number of
    scalar transforms of each call; returns the (live) list of counts.

    A box transform counts one scalar transform per leading component, as
    the whole-grid transform it stands for does.
    """
    transforms = []
    for name in names:
        original = getattr(FourierWorkspace, name)

        def counting(ws, arr, *box, _original=original):
            out = _original(ws, arr, *box)
            if box:
                transforms.append(int(np.prod(arr.shape[:-3])))
            else:
                real = arr if arr.dtype.kind == "f" else out
                transforms.append(real.size // ws.grid.n**3)
            return out

        monkeypatch.setattr(FourierWorkspace, name, counting)
    return transforms


def record_fft_workers(monkeypatch) -> list:
    """Patch the workspace's worker rule to record the worker count of
    every transform call; returns the (live) list of counts."""
    import maxmat.spectral as spectral

    seen = []
    original = spectral.fft_workers

    @contextlib.contextmanager
    def recording(points):
        with original(points) as workers:
            seen.append(workers)
            yield workers

    monkeypatch.setattr(spectral, "fft_workers", recording)
    return seen


def smooth_coefficients(grid, amp1=0.6, amp2=0.4):
    """Smooth positive kappa pair, constant near the box faces."""
    xx, yy, zz = grid.meshgrid()
    r2 = (xx - 0.5) ** 2 + (yy - 0.5) ** 2 + (zz - 0.5) ** 2
    bump = np.exp(-r2 / 0.02)
    return Coefficients(1.0 + amp1 * bump, 1.0 + amp2 * bump)


def tilted_magnetization(domain, tilt=0.8, winding=1):
    """Unit-modulus magnetization with an equidistributed transverse phase."""
    x = domain.coordinates()[0]
    xmin = x.min()
    wx = x.max() - xmin + domain.grid.spacing
    ang = 2.0 * np.pi * winding * (x - xmin) / wx
    mz = np.sqrt(1.0 - tilt**2)
    return np.stack(
        [tilt * np.cos(ang), tilt * np.sin(ang), mz * np.ones(domain.count)]
    )


@pytest.fixture()
def ll_system(grid16):
    """Small Landau-Lifschitz setup used by the dynamics tests."""
    coeffs = Coefficients.constant(grid16, 1.0, 1.0)
    w = 2 * grid16.spacing
    domain = box_mask(grid16, (0.5, 0.5, 0.5), (w, w, w))
    model = LandauLifschitzModel(
        gyro=6.0, damping=0.5, aniso=1.0, axis=(0, 0, 1), h_ext=(0, 0, 2.0)
    )
    return SimSystem(grid16, coeffs, domain, model)


@pytest.fixture()
def ll_state(ll_system):
    v0 = tilted_magnetization(ll_system.domain)
    return make_initial(ll_system, v0)
