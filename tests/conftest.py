import pytest

from amecode import catalog
from amecode.groups import local_symmetry_group, weyl_group


@pytest.fixture(scope="session")
def code332():
    return catalog.code_332()


@pytest.fixture(scope="session")
def weyl():
    return weyl_group()


@pytest.fixture(scope="session")
def local_sym():
    return local_symmetry_group()


@pytest.fixture(scope="session")
def phi_unit():
    return catalog.ame_state()


@pytest.fixture(scope="session")
def phi_rowform():
    return catalog.ame_state(normalized=False)
