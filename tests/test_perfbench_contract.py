"""The names the benchmark's tracer and worker use of the program.

`perfbench/tracer.py` wraps every function in its LAYERS by name, counts the
items of each generator function in its GENERATORS (so each must stay one),
and copies cache_info and cache_clear from the structure caches, and
`perfbench/worker.py` reads `cache_info()._asdict()` of both on every run.  The tracer is installed
in a subprocess, so this session's modules stay unwrapped; `-B` keeps it from
writing bytecode next to the tracer.
"""
import os
import subprocess
import sys

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")

CODE = """
import importlib, importlib.util, inspect, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
for path in tracer.GENERATORS:
    short, *attrs = path.split(".")
    fn = importlib.import_module("rlw." + short)
    for attr in attrs:
        fn = getattr(fn, attr)
    assert inspect.isgeneratorfunction(fn), path
t = tracer.Tracer()
t.install()
for short, names in tracer.LAYERS.items():
    module = importlib.import_module("rlw." + short)
    for name in names:
        assert callable(getattr(module, name)), (short, name)
from rlw import structure
from rlw.catalog import make_goedel
for name in tracer.CACHED:
    fn = getattr(structure, name)
    fn.cache_clear()
    fn(make_goedel(3))
    fn(make_goedel(3))
    info = fn.cache_info()._asdict()
    assert (info["hits"], info["misses"]) == (1, 1), (name, info)
stats = t.stats()
assert stats["counts"]["structure.congruences.cache_misses"] == 1, stats["counts"]
assert stats["calls"]["structure.congruences"] == 2, stats["calls"]
print("ok")
"""


def test_tracer_installs_and_reads_the_structure_caches():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-B", "-c", CODE, TRACER], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
