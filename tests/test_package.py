"""The package surface, and the modules each entry path loads.

``redkit`` resolves its exports on first access, so each entry path loads
only the submodules it runs.  The footprint tests run each path in a fresh
interpreter and read ``sys.modules`` there.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import redkit

SRC = str(Path(__file__).resolve().parent.parent / "src")

# each submodule and the names the package exports from it
ORIGINS = {
    "catalog": ("REDUCTIONS", "get_reduction"),
    "certificates": ("CertificateScheme", "FULL_SS_SCHEME", "SCHEMES",
                     "UNBOUNDED_SS_SCHEME", "ZKK_SCHEME",
                     "certificate_scheme_check", "nppt_contract_check",
                     "zero_sum_premise_check"),
    "errors": ("ConstructionError", "RedkitError", "ReductionError",
               "ResourceLimitError", "ValidationError"),
    "instances": ("AndSatInstance", "CnfInstance", "ColoringInstance",
                  "CounterMachineInstance", "CyclicGroup",
                  "GroupSubsetSumInstance", "IlpInstance", "KnapsackInstance",
                  "ProductGroup", "SchedulingInstance", "SubsetSumInstance",
                  "SymmetricGroup", "UnboundedSubsetSumInstance", "dumps",
                  "loads", "trivial_instance", "validate"),
    "numeric": ("NUMERIC_REDUCTIONS", "graver_check", "graver_sequence"),
    "oracles": ("Verdict", "check_solution", "solve"),
    "pipeline": ("PIPELINE_REDUCTIONS", "red_cm_to_perm_ss",
                 "red_coloring_to_cm"),
    "reductions": ("Reduction", "chain", "compose", "deterministic",
                   "identity_reduction"),
    "satred": ("SAT_REDUCTIONS", "red_3sat_to_ss", "red_andsat_to_scheduling",
               "red_cnf_to_coloring"),
    "witness": ("Witness", "field_width"),
}
SUBMODULES = ("catalog", "certificates", "errors", "groups", "instances",
              "kernels", "numeric", "oracles", "pathdecomp", "pipeline",
              "reductions", "satred", "witness")

# reductions and the catalog that names them: no certificate or solve path
# needs them
REDUCTION_MODULES = ("catalog", "numeric", "pipeline", "satred", "reductions")


# ---------------------------------------------------------------------------
# The package surface.


def test_all_is_the_exported_names_and_the_submodules():
    names = [n for names in ORIGINS.values() for n in names]
    assert len(names) == 52 and len(SUBMODULES) == 13
    assert redkit.__all__ == sorted(names + list(SUBMODULES))
    assert len(redkit.__all__) == 65


@pytest.mark.parametrize("module", sorted(ORIGINS))
def test_each_export_is_the_object_its_submodule_holds(module):
    sub = importlib.import_module(f"redkit.{module}")
    for name in ORIGINS[module]:
        assert getattr(redkit, name) is getattr(sub, name), name


def test_each_submodule_name_is_the_submodule():
    for name in SUBMODULES:
        assert getattr(redkit, name) is sys.modules[f"redkit.{name}"]


def test_star_import_and_dir():
    namespace = {}
    exec("from redkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == redkit.__all__
    assert all(namespace[n] is getattr(redkit, n) for n in namespace)
    listed = dir(redkit)
    assert listed == sorted(listed)
    assert set(redkit.__all__) <= set(listed)
    assert "__version__" in listed


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        redkit.nope
    assert not hasattr(redkit, "Nope")
    with pytest.raises(ImportError):
        exec("from redkit import nope", {})


# ---------------------------------------------------------------------------
# Import footprints, each in a fresh interpreter.


def _loaded(code):
    """Run ``code`` in a fresh interpreter; the redkit submodules it loaded.
    ``code`` may print lines of its own; the last line is the module list."""
    probe = ("\nimport json, sys\nprint(json.dumps(sorted("
             "m[7:] for m in sys.modules if m.startswith('redkit.'))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code + probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *out, last = done.stdout.splitlines()
    return out, set(json.loads(last))


def test_import_redkit_loads_no_submodule():
    _, loaded = _loaded("import redkit\nassert redkit.__version__")
    assert loaded == set()


def test_cert_sweep_path_loads_no_reduction_or_path_decomposition():
    setup = "import redkit.certificates, redkit.families, redkit.kernels"
    _, loaded = _loaded(setup)
    assert loaded == {"certificates", "errors", "families", "groups",
                      "instances", "kernels", "oracles", "witness"}
    # both certificate schemes, swept as the cert-sweep workload sweeps them
    out, after = _loaded(setup + """
from redkit.certificates import (UNBOUNDED_SS_SCHEME, ZKK_SCHEME,
                                 certificate_scheme_check)
from redkit.families import unbounded_instances, zkk_instances
for scheme, family in ((UNBOUNDED_SS_SCHEME, unbounded_instances(2, 4, 8)),
                       (ZKK_SCHEME, zkk_instances(2, 2))):
    rep = certificate_scheme_check(scheme, family, exhaustive_cap=1 << 10)
    print(rep.ok, rep.checked > 0)
""")
    assert out == ["True True"] * 2
    # a scheme is swept as its ``Reduction``, and no reduction of the
    # catalog loads
    assert after == loaded | {"reductions"}
    assert not after & {*REDUCTION_MODULES, "pathdecomp"} - {"reductions"}


def test_solve_mix_path_loads_no_certificate_or_catalog_module():
    out, loaded = _loaded("""
import redkit.errors
import redkit.instances as I
import redkit.oracles as oracles
from redkit.families import named_graph
from redkit.pipeline import red_coloring_to_cm
from redkit.witness import Witness
machine = red_coloring_to_cm.apply(named_graph("k3"), Witness.zero(0))
for inst in (I.SubsetSumInstance((3, 5, 7), 12),
             I.SubsetSumInstance((3, 5), 1, 7),
             I.GroupSubsetSumInstance(I.CyclicGroup(6), (2, 3), 5),
             I.IlpInstance(((1, 0), (1, -1), (0, 1)), (1, 0), "standard"),
             I.UnboundedSubsetSumInstance((4, 7), 15),
             machine):
    print(oracles.solve(inst).answer)
""")
    assert out == ["True"] * 6
    assert not loaded & {"certificates", "catalog", "numeric", "satred"}


def test_cli_solve_loads_no_reduction_scheme_or_family(tmp_path):
    path = tmp_path / "i.json"
    path.write_text(redkit.dumps(redkit.SubsetSumInstance((3, 5), 8)))
    out, loaded = _loaded("from redkit.cli import main\n"
                          f"assert main(['solve', {str(path)!r}]) == 0")
    assert out == ["yes (dp, pure backend) solution=[0, 1]"]
    assert loaded == {"cli", "errors", "groups", "instances", "kernels",
                      "oracles"}


def test_transfer_works_after_a_start_without_reductions():
    out, loaded = _loaded("""
import sys
import redkit.certificates as C
import redkit.instances as I
from redkit.oracles import solve
assert "redkit.reductions" not in sys.modules
last = C.FULL_SS_SCHEME.reduction()
from redkit.numeric import NUMERIC_REDUCTIONS
from redkit.reductions import compose
zq_to_ss = next(r for r in NUMERIC_REDUCTIONS if r.name == "zq-to-ss")
composite = compose(zq_to_ss, last)
inst = I.GroupSubsetSumInstance(I.CyclicGroup(4), (1, 2), 3)
wit = composite.synthesize(inst, solve(inst).solution)
print((wit.value, wit.length), solve(composite.apply(inst, wit)).answer)
""")
    assert out == ["(15, 6) True"]
    assert "reductions" in loaded and "catalog" not in loaded


GRAPH = "I.ColoringInstance(3, ((0, 1), (1, 2)), ((0, 1), (1, 2)))"
# a path on 13 vertices: past the brute search's gate, so solve runs the DP
PATH13 = "I.ColoringInstance(13, *[tuple((i, i + 1) for i in range(12))] * 2)"


@pytest.mark.parametrize("call, printed", [
    (f"I.validate({GRAPH})", "[]"),
    ("len(I.validate(I.ColoringInstance(3, ((0, 2),), ((0, 1), (1, 2)))))",
     "1"),
    (f"I.parameter({GRAPH})", "2"),
    (f"oracles.solve({PATH13}).method", "dp"),
], ids=["validate", "validate-uncovered-edge", "parameter", "dp"])
def test_coloring_paths_load_the_path_decomposition(call, printed):
    out, loaded = _loaded(f"""
import sys
import redkit.instances as I
import redkit.oracles as oracles
assert "redkit.pathdecomp" not in sys.modules
print({call})
""")
    assert out == [printed]
    assert "pathdecomp" in loaded
