"""Guards against drift between tables that must agree: every exported name
exists, and the CLI offers exactly the kind settings the registry's kinds read."""

import importlib
import pkgutil

import pytest

import charmatch
from charmatch import cli, registry

MODULES = ["charmatch"] + [f"charmatch.{info.name}"
                           for info in pkgutil.iter_modules(charmatch.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # errors and poly keep none
    assert len(set(exported)) == len(exported)
    assert [symbol for symbol in exported if not hasattr(module, symbol)] == []


def test_the_cli_kind_settings_are_x0_and_the_registry_parameters():
    params = {key for _, params in registry.KINDS.values() for key in params}
    assert set(cli._KIND_SETTINGS) == {"x0"} | params
    assert set(cli._KIND_SETTINGS) <= set(cli._BUILD)


def test_every_cli_setting_is_read_by_some_command():
    # a setting no command reads, a kind parameter that no kind has any more
    # included, would be a flag that nothing accepts
    assert set(cli._SETTINGS) == {key for reads in cli._READS.values() for key in reads}
