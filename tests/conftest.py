import pytest

from nilalg import FamilySpec, make

from oracles import catalog_specs

# The acceptance instance grid (criterion 1); reused by several modules.
GRID = (
    FamilySpec("L", 12, 4, (3, 5, 7)),
    FamilySpec("L", 14, 5, (3, 5, 7, 9)),
    FamilySpec("Q", 15, 4, (3, 5, 7)),
    FamilySpec("TAU_NP1", 12, 4, (3, 5)),
    FamilySpec("TAU_NP2", 13, 4, (3, 5)),
    FamilySpec("M1", 8, 4),
    FamilySpec("M2", 8, 4),
    FamilySpec("M3", 9, 5),
    FamilySpec("M4", 10, 4, (), 0),
    FamilySpec("M4", 12, 6, (), 1),
    FamilySpec("M5", 10, 4),
)


@pytest.fixture(scope="session")
def grid_algebras():
    return {spec: make(spec) for spec in GRID}


@pytest.fixture(scope="session")
def m1_8_4():
    return make(FamilySpec("M1", 8, 4))


@pytest.fixture(scope="session")
def m3_9_5():
    return make(FamilySpec("M3", 9, 5))


@pytest.fixture(scope="session")
def m4_10_4_0():
    return make(FamilySpec("M4", 10, 4, (), 0))


@pytest.fixture(scope="session")
def m5_10_4():
    return make(FamilySpec("M5", 10, 4))


@pytest.fixture(scope="session")
def l_12_4():
    return make(FamilySpec("L", 12, 4, (3, 5, 7)))


@pytest.fixture(scope="session")
def catalog_16():
    """Every catalog algebra with n <= 16, built once: (spec, algebra) pairs."""
    return tuple(catalog_specs(16))
