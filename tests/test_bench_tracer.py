"""The bench's span tracer still finds every function it hooks."""

import json
import os
import pathlib
import subprocess
import sys


def test_bench_tracer_hooks_every_function():
    # perfbench/tracer.py skips a hook whose function is gone and lists it
    # in `missing`, where that layer's bench metrics would read 0; a rename
    # or removal in the package must show up here instead
    root = pathlib.Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")  # writes nothing under perfbench/
    code = (
        "import json, qident, tracer\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t, qident)\n"
        "print(json.dumps({'missing': t.missing, 'names': t.names}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    doc = json.loads(out.stdout)
    assert doc["missing"] == []
    assert {"hfamily.h_poly", "hfamily.f_func", "qobjects.poch_infinite", "multisum.eval_multisum"} <= set(
        doc["names"]
    )
