import pytest

from rigidhecke import rigidtab
from rigidhecke.conj import newton_zero_classes
from rigidhecke.hecke import HeckeContext


def bare_context(wd):
    """A context without a module panel in which every Newton-zero class is a
    row, for the suites that build their own modules."""
    classes = newton_zero_classes(wd)
    man = rigidtab.PresetManifest(wd.datum.name)
    return rigidtab.PresetContext(man, wd, HeckeContext(wd), classes, list(classes), [])


@pytest.fixture(scope="session")
def pc_sl2():
    return rigidtab.build_preset_context("sl2")


@pytest.fixture(scope="session")
def pc_pgl2():
    return rigidtab.build_preset_context("pgl2")


@pytest.fixture(scope="session")
def pc_c2():
    return rigidtab.build_preset_context("c2-aff")


@pytest.fixture(scope="session")
def table_sl2(pc_sl2):
    return pc_sl2.table


@pytest.fixture(scope="session")
def table_pgl2(pc_pgl2):
    return pc_pgl2.table


@pytest.fixture(scope="session")
def table_c2(pc_c2):
    return pc_c2.table
