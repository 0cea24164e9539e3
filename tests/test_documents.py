"""Every key of every rlw document against every JSON type (README, "File format").

Four valid documents (a chain-coded and a matrix-coded algebra, the partial
file and a span file the benchmark writes) are mutated at every key, list
entry and table cell: each JSON type README does not allow there is
substituted, each key is removed, and an unknown key is added at top level and
inside `constraints`.  Each case runs through the CLI in-process.  A case
ends in exit 2 with exactly one `error:` line, or it is a spelling README
lists, which gives the output of the document without that key: null for
`constants`, `constraints`, `labels`, `commutative` and `involutive_f`, and
an absent key that README marks optional.
"""
from __future__ import annotations

import copy
import importlib.util
import json
import os
import sys

import pytest

from rlw.catalog import make_goedel
from rlw.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VALUES = {"null": None, "bool": True, "int": 7, "float": 1.0, "string": "x", "list": [],
          "object": {}}

# the JSON types README allows at each place, "*" standing for any list index
# or constant name
ALGEBRA = {("format",): "string", ("name",): "string", ("size",): "int",
           ("leq",): "string list", ("leq", "*"): "list", ("leq", "*", "*"): "int",
           ("unit",): "int", ("mult",): "list", ("mult", "*"): "list",
           ("mult", "*", "*"): "int", ("constants",): "object", ("constants", "*"): "int"}
INDEX_LISTS = ("idempotent", "non_idempotent", "central", "non_central")
PARTIAL = {**ALGEBRA, ("mult", "*", "*"): "int null", ("labels",): "list",
           ("labels", "*"): "string", ("constraints",): "object",
           ("constraints", "commutative"): "bool", ("constraints", "involutive_f"): "bool",
           ("constraints", "equations"): "list", ("constraints", "equations", "*"): "string",
           **{("constraints", k): "list" for k in INDEX_LISTS},
           **{("constraints", k, "*"): "int" for k in INDEX_LISTS}}
SPAN = {("format",): "string", ("A",): "string", ("B",): "string", ("C",): "string",
        ("phi1",): "list", ("phi2",): "list", ("phi1", "*"): "int", ("phi2", "*"): "int"}
# where null is the spelling of an absent key
NULL_MEANS_ABSENT = {("constants",), ("labels",), ("constraints",),
                     ("constraints", "commutative"), ("constraints", "involutive_f")}
# the keys a document may leave out
OPTIONAL = {("constants",), ("constants", "*"), ("name",), ("labels",), ("constraints",),
            *(("constraints", k) for k in INDEX_LISTS + ("commutative", "involutive_f",
                                                         "equations"))}


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("rlw_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _documents(tmp_path):
    """Name -> (document, the CLI arguments before its path, after it, the
    types allowed in it)."""
    workloads = _workloads()
    workloads.write_cli_files(str(tmp_path))

    def read(name):
        return json.loads((tmp_path / name).read_text())
    matrix = json.loads(workloads.relabelled_text(make_goedel(3), [2, 0, 1]))
    return {"chain-algebra": (read("g3.json"), ["con"], [], ALGEBRA),
            "matrix-algebra": (matrix, ["con"], [], ALGEBRA),
            "partial": (read("partial.json"), ["complete"], ["--all"], PARTIAL),
            "span": (read("g2-g3-span.json"), ["refute", "--span"], [], SPAN)}


def _pattern(path):
    if path[0] == "constants" and len(path) == 2:
        return ("constants", "*")
    return tuple("*" if type(k) is int else k for k in path)


def _places(doc, path=()):
    """Every key path and list position in doc, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _places(value, path + (key,))


def _edit(doc, path, value=None, remove=False):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if remove:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def _cases(doc, allowed):
    """(label, mutated document, expected outcome): "error", "optional" (the
    removal of a key the document may leave out), or the path whose removal
    the mutation must match."""
    for path in _places(doc):
        pattern = _pattern(path)
        for name, value in VALUES.items():
            if name not in allowed[pattern].split():
                same = name == "null" and pattern in NULL_MEANS_ABSENT
                yield f"{path} = {name}", _edit(doc, path, value), path if same else "error"
        if type(path[-1]) is str:
            # an algebra file's name is required, a partial file's is not
            optional = pattern in OPTIONAL and not (path == ("name",) and allowed is ALGEBRA)
            yield f"{path} removed", _edit(doc, path, remove=True), \
                "optional" if optional else "error"
    yield "unknown top-level key", dict(doc, extra=1), "error"
    if "constraints" in doc:
        yield "unknown constraint", _edit(doc, ("constraints", "non_idempotnt"), [1]), "error"


@pytest.mark.parametrize("which", ["chain-algebra", "matrix-algebra", "partial", "span"])
def test_every_key_against_every_json_type(tmp_path, capsys, which):
    doc, before, after, allowed = _documents(tmp_path)[which]
    path = tmp_path / "case.json"

    def run(d):
        path.write_text(json.dumps(d))
        try:
            code = main(before + [str(path)] + after)
        except Exception as exc:   # a traceback: reported as a failure below
            code = repr(exc)
        out, err = capsys.readouterr()
        return code, out, err

    assert run(doc)[0] in (0, 1)
    failures, calls = [], 0
    for label, mutated, expect in _cases(doc, allowed):
        code, out, err = got = run(mutated)
        calls += 1
        one_error = code == 2 and len(err.splitlines()) == 1 and err.startswith("error: ")
        if expect == "error":
            ok = one_error
        elif expect == "optional":
            ok = one_error or code in (0, 1) and err == ""
        else:
            ok = got == run(_edit(doc, expect, remove=True))
        if not ok:
            failures.append(f"{label}: exit {code}, stderr {err!r}")
    assert calls > 50 and not failures, "\n".join(failures)
