import pytest

from geofermat import make_surface


@pytest.fixture(scope="session")
def sphere():
    return make_surface("sphere", radius=1.0)


@pytest.fixture(scope="session")
def cylinder():
    return make_surface("cylinder", radius=1.0)


@pytest.fixture(scope="session")
def plane():
    return make_surface("plane")


@pytest.fixture(scope="session")
def paraboloid():
    return make_surface("paraboloid", a=1.0)


@pytest.fixture(scope="session")
def catenoid():
    return make_surface("catenoid", a=1.0)


@pytest.fixture(scope="session")
def torus():
    return make_surface("torus", R=2.0, r=0.7)
