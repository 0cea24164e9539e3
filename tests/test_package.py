"""The `rlw` package: one table of public names, each module imported on first use."""
import hashlib
import importlib
import os
import subprocess
import sys

import pytest

import rlw


def test_every_public_name_resolves_to_its_home_module():
    assert len(rlw.__all__) == len(set(rlw.__all__)) == 87
    # the sorted names the package exported when it imported every module eagerly
    names = " ".join(sorted(rlw.__all__)).encode()
    assert hashlib.md5(names).hexdigest() == "0325ac8528f61cc96d94aa9e1c6f5ffc"
    for name in rlw.__all__:
        home = importlib.import_module(f"rlw.{rlw._HOME[name]}")
        assert getattr(rlw, name) is getattr(home, name), name


def test_unknown_names_and_submodules():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rlw.no_such_name
    from rlw import decide_ap, structure
    assert structure is sys.modules["rlw.structure"] and decide_ap is rlw.decide_ap


def test_cli_imports_only_what_its_commands_share():
    # amalgam, repro and completion load inside the subcommands that run them
    code = ("import sys, rlw, rlw.cli; print(sorted(m for m in "
            "('rlw.amalgam', 'rlw.repro', 'rlw.completion') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
