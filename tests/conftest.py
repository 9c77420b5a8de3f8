import numpy as np
import pytest

from mhbounds.femcore import FemContext, Scratch
from reference_assembly import build_mesh


@pytest.fixture(scope="session")
def mesh2():
    return build_mesh(2)


@pytest.fixture(scope="session")
def mesh8():
    return build_mesh(8)


@pytest.fixture(scope="session")
def mesh16():
    return build_mesh(16)


@pytest.fixture(scope="session")
def ctx2(mesh2):
    return FemContext(mesh2)


@pytest.fixture(scope="session")
def ctx8(mesh8):
    return FemContext(mesh8)


@pytest.fixture(scope="session")
def ctx16(mesh16):
    return FemContext(mesh16)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture()
def scratch():
    """A fresh scratch for the kernels that borrow their buffers."""
    return Scratch()
