"""Command-line interface: exit codes, determinism, file outputs."""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from redkit import instances as I
from redkit.catalog import REDUCTIONS
from redkit.certificates import SCHEMES, ZKK_SCHEME
from redkit.cli import _FAMILIES, main
from redkit.errors import ValidationError
from redkit.instances import (CyclicGroup, GroupSubsetSumInstance,
                              ProductGroup, SubsetSumInstance, SymmetricGroup,
                              UnboundedSubsetSumInstance, dumps, loads)
from redkit.witness import Witness, all_witnesses

from helpers import INSTANCES, JSON_VALUES, SHAPED_INSTANCES, gates


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(path, inst):
    path.write_text(dumps(inst))
    return str(path)


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "subset-sum", "--n", "4", "--seed", "7",
                 "--out", str(a)]) == 0
    assert main(["gen", "subset-sum", "--n", "4", "--seed", "7",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert loads(a.read_text()).kind == "subset_sum"


def test_gen_seed_changes_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["gen", "subset-sum", "--n", "6", "--seed", "1", "--out", str(a)])
    main(["gen", "subset-sum", "--n", "6", "--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize("argv,kind", [
    (["gen", "knapsack"], "knapsack"),
    (["gen", "ilp", "--variant", "monotone"], "ilp"),
    (["gen", "cnf"], "cnf"),
    (["gen", "unbounded"], "unbounded_subset_sum"),
    (["gen", "zq", "--q", "7"], "group_subset_sum"),
    (["gen", "coloring", "--graph", "k4"], "coloring"),
    (["gen", "cm", "--ell", "2", "--n", "3"], "counter_machine"),
])
def test_gen_kinds(tmp_path, argv, kind):
    out = tmp_path / "inst.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert loads(out.read_text()).kind == kind


def test_gen_cm_from_coloring_matches_library(tmp_path):
    from redkit.catalog import get_reduction
    from redkit.families import named_graph
    out = tmp_path / "cm.json"
    assert main(["gen", "cm", "--from-coloring", "k3", "--out", str(out)]) == 0
    expected = get_reduction("coloring-to-cm").apply(
        named_graph("k3"), Witness.zero(0))
    assert loads(out.read_text()) == expected


def test_solve_exit_codes(tmp_path, capsys):
    yes = _write(tmp_path / "yes.json", SubsetSumInstance((3, 5), 8))
    no = _write(tmp_path / "no.json", SubsetSumInstance((3, 5), 4))
    code, out, _ = run(capsys, "solve", yes)
    assert code == 0 and out.startswith("yes")
    code, out, _ = run(capsys, "solve", no)
    assert code == 1 and out.startswith("no")


def test_solve_json_payload(tmp_path, capsys):
    p = _write(tmp_path / "i.json", SubsetSumInstance((3, 5), 8))
    code, out, _ = run(capsys, "solve", p, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] == "yes"
    assert payload["kind"] == "subset_sum"
    assert payload["backend"] == "pure"
    assert payload["solution"] == [0, 1]


def test_solve_rejects_malformed_instance(tmp_path, capsys):
    p = tmp_path / "bad.json"
    text = dumps(SubsetSumInstance((3,), 1)).replace('"3"', '"-3"')
    p.write_text(text)
    code, _, err = run(capsys, "solve", str(p))
    assert code == 2
    assert "error:" in err


def test_solve_rejects_garbage_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, _, err = run(capsys, "solve", str(p))
    assert code == 2


def test_reduce_with_sidecar(tmp_path, capsys):
    src = _write(tmp_path / "src.json", SubsetSumInstance((3, 5), 8))
    out = tmp_path / "out.json"
    code, _, _ = run(capsys, "reduce", "ss-to-knapsack", src,
                     "--out", str(out))
    assert code == 0
    target = loads(out.read_text())
    assert target.kind == "knapsack"
    meta = json.loads((tmp_path / "out.json.meta.json").read_text())
    assert meta["reduction"] == "ss-to-knapsack"
    assert meta["witness"] == {"hex": "0", "length": 0}
    assert len(meta["source_sha256"]) == 64
    assert meta["parameter_before"] > 0 and meta["parameter_after"] > 0


def test_a_source_is_validated_once_per_object(tmp_path, capsys,
                                             monkeypatch):
    # ``redkit reduce`` loads and applies through one memo, and so do many
    # ``apply`` calls on one source; another object, equal or not, is
    # validated again
    calls = []
    real = I.validate
    monkeypatch.setattr(I, "validate",
                        lambda inst: calls.append(inst) or real(inst))
    # a memo holding no source (emptying it needs no undo)
    I.source_problems.last[0] = (object(), None)
    src = _write(tmp_path / "src.json", SubsetSumInstance((3, 5), 8))
    code, _, _ = run(capsys, "reduce", "ss-to-monotone", src)
    assert code == 0 and len(calls) == 1
    red = REDUCTIONS["ss-to-monotone"]
    inst = SubsetSumInstance((3, 5), 5)
    for copy in (inst, inst, dataclasses.replace(inst)):
        for wit in all_witnesses(red.witness_len(copy)):
            red.apply(copy, wit)
    assert len(calls) == 3 and calls[1] is inst and calls[2] is not inst
    # a rejected source is refused on every call, from the memo
    bad = SubsetSumInstance((3, -1), 2)
    for _ in range(2):
        with pytest.raises(ValidationError):
            red.apply(bad, Witness.zero(0))
    assert len(calls) == 4


def test_reduce_synthesize_yes_and_no(tmp_path, capsys):
    yes = _write(tmp_path / "yes.json", SubsetSumInstance((3, 5), 8))
    no = _write(tmp_path / "no.json", SubsetSumInstance((3, 5), 4))
    out = tmp_path / "t.json"
    code, _, _ = run(capsys, "reduce", "ss-to-monotone", yes,
                     "--synthesize", "--out", str(out))
    assert code == 0
    assert loads(out.read_text()).variant == "monotone"
    code, _, err = run(capsys, "reduce", "ss-to-monotone", no,
                       "--synthesize", "--out", str(out))
    assert code == 1
    assert "no-instance" in err


def test_reduce_explicit_witness(tmp_path, capsys):
    src = _write(tmp_path / "src.json",
                 GroupSubsetSumInstance(CyclicGroup(6), (1, 2), 3))
    out = tmp_path / "t.json"
    wit_hex = format(9, "x")  # lift target to 9 = 3 + 6
    code, _, _ = run(capsys, "reduce", "zq-to-ss", src,
                     "--witness", wit_hex, "--out", str(out))
    assert code == 0
    assert loads(out.read_text()).target == 9


def test_reduce_witness_length_mismatch(tmp_path, capsys):
    src = _write(tmp_path / "src.json", SubsetSumInstance((3, 5), 8))
    code, _, err = run(capsys, "reduce", "ss-to-monotone", src,
                       "--witness", "ffffffffffff")
    assert code == 2


def test_reduce_kind_mismatch(tmp_path, capsys):
    src = _write(tmp_path / "src.json", SubsetSumInstance((3, 5), 8))
    code, _, err = run(capsys, "reduce", "zq-to-ss", src)
    assert code == 2
    assert "expects" in err


def test_verify_identity_passes(capsys):
    code, out, _ = run(capsys, "verify", "identity-subset-sum",
                       "--family", "subset-sum:n=2,max=3,tmax=7")
    assert code == 0
    assert "0 violations" in out
    # the report names the reduction as the catalog does
    assert out.startswith("identity-subset-sum: ")


def test_catalog_keys_are_reduction_names():
    for key, red in REDUCTIONS.items():
        assert red.name == key


def test_verify_chain(capsys):
    code, out, _ = run(capsys, "verify", "ss-to-zq+zq-to-ss",
                       "--family", "subset-sum:n=2,max=3,tmax=7", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True and rep["violations"] == []


def test_verify_chain_whose_kinds_do_not_meet(capsys):
    code, _, err = run(capsys, "verify", "ss-to-knapsack+ss-to-zq")
    assert code == 2
    assert err == ("error: cannot compose ss-to-knapsack (knapsack) "
                   "with ss-to-zq (subset_sum)\n")


def test_verify_unknown_reduction(capsys):
    code, _, err = run(capsys, "verify", "no-such-reduction")
    assert code == 2
    assert "error:" in err


def test_verify_unknown_family(capsys):
    code, _, err = run(capsys, "verify", "identity-subset-sum",
                       "--family", "nope")
    assert code == 2


def test_verify_limit(capsys):
    code, out, _ = run(capsys, "verify", "ss-to-knapsack",
                       "--family", "subset-sum", "--limit", "25", "--json")
    assert code == 0
    assert json.loads(out)["checked"] == 25


def _usage_error(capsys, *argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_bad_family_parameter(capsys):
    _usage_error(capsys, "verify", "ss-to-knapsack",
                 "--family", "subset-sum:n=x")


def test_verify_negative_limit(capsys):
    _usage_error(capsys, "verify", "ss-to-knapsack", "--limit", "-1")


@pytest.mark.parametrize("reduction,family", [
    ("ss-to-knapsack", "knapsack"),
    ("knapsack-to-ss", "subset-sum"),
    # the right kind but the wrong ILP variant
    ("monotone-to-ss", "ilp-standard:m=1,n=2"),
    ("ilp-to-monotone", "ilp-monotone:m=1,n=2"),
])
def test_verify_family_of_the_wrong_kind(capsys, reduction, family):
    _usage_error(capsys, "verify", reduction, "--family", family)


def test_verify_chain_whose_variants_do_not_meet(capsys):
    code, _, err = run(capsys, "verify", "ss-to-monotone+zerosum-to-ilp")
    assert code == 2
    assert err == ("error: cannot compose ss-to-monotone (monotone) "
                   "with zerosum-to-ilp (zero_sum)\n")


def test_verify_chain_through_an_identity_keeps_the_variant(capsys):
    # identity-ilp names no variant; the chain still reads monotone there
    code, _, err = run(capsys, "verify",
                       "ss-to-monotone+identity-ilp+zerosum-to-ilp",
                       "--family", "subset-sum:n=2,max=3,tmax=4")
    assert code == 2
    assert err == ("error: cannot compose ss-to-monotone+identity-ilp "
                   "(monotone) with zerosum-to-ilp (zero_sum)\n")


def test_reduce_variant_mismatch(tmp_path, capsys):
    src = _write(tmp_path / "src.json", I.IlpInstance(((1,),), (1,)))
    _usage_error(capsys, "reduce", "monotone-to-ss", src, "--synthesize")


def test_subset_sum_readers_refuse_a_modular_source(tmp_path, capsys,
                                                    monkeypatch):
    inst = SubsetSumInstance((3, 4), 2, modulus=5)
    src = _write(tmp_path / "m.json", inst)
    _usage_error(capsys, "reduce", "ss-to-knapsack", src, "--synthesize")
    # no --family generator makes a modular instance: one is swapped in
    monkeypatch.setitem(_FAMILIES, "subset-sum", (lambda: iter([inst]), {}))
    _usage_error(capsys, "verify", "ss-to-monotone", "--family", "subset-sum")


@pytest.mark.parametrize("reduction,extra", [
    ("ss-to-knapsack", ["--family", "subset-sum:n=-1"]),
    ("zq-to-ss", ["--family", "zq:q=0"]),
    ("ss-to-knapsack", ["--limit", "0"]),
])
def test_verify_empty_family(capsys, reduction, extra):
    _usage_error(capsys, "verify", reduction, *extra)


@pytest.mark.parametrize("reduction,family", [
    ("zq-to-ss", "zkk:k=-1"),
    ("identity-group-subset-sum", "zkk:k=0"),
    ("cm-to-permss", "cm:ell=-1"),
    ("cm-to-permss", "cm:ell=0"),
    ("tsat-to-ss", "cnf:vars=-3"),
    ("andsat-to-scheduling", "andsat:vars=-1"),
])
def test_verify_family_parameter_below_its_minimum(capsys, reduction, family):
    # these built no family (a ValueError) or a family of malformed instances
    _usage_error(capsys, "verify", reduction, "--family", family)


def test_gen_empty_modulus(capsys):
    _usage_error(capsys, "gen", "zq", "--q", "0")


def test_solve_bad_arity_cap(tmp_path, capsys):
    p = tmp_path / "cnf.json"
    p.write_text(json.dumps({"problem": "cnf", "num_vars": 1,
                             "clauses": [[1]], "arity_cap": "x"}))
    _usage_error(capsys, "solve", str(p))


def test_cert_check_exit_codes(tmp_path, capsys):
    inst = _write(tmp_path / "u.json", UnboundedSubsetSumInstance((4, 5), 23))
    code, out, _ = run(capsys, "cert-check", "unbounded-ss", inst, "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True and rep["checked"] == 1
    code, _, err = run(capsys, "cert-check", "no-such-scheme", inst)
    assert code == 2
    code, _, err = run(capsys, "cert-check", "zkk", inst)
    assert code == 2          # scheme / instance kind mismatch


# a Z_2^2 instance whose two equal elements never sum to the target
_ZKK_NO = GroupSubsetSumInstance(ProductGroup(2), ((1, 0), (1, 0)), (0, 1))


def _report_lines(out, label):
    return [line for line in out.splitlines()
            if line.startswith(f"  {label}: ")]


def test_verify_reports_a_violation_and_a_skip(capsys, monkeypatch):
    inst = SubsetSumInstance((3, 4), 7)
    monkeypatch.setitem(_FAMILIES, "subset-sum", (lambda: iter([inst]), {}))
    # a planted fault: every witness maps to a no-instance
    broken = dataclasses.replace(
        REDUCTIONS["identity-subset-sum"],
        transform=lambda src, wit: SubsetSumInstance((), 1))
    monkeypatch.setitem(REDUCTIONS, "identity-subset-sum", broken)
    code, out, _ = run(capsys, "verify", "identity-subset-sum",
                       "--family", "subset-sum")
    assert code == 1
    assert "1 violations, 0 skipped" in out
    [line] = _report_lines(out, "violation")
    assert "'kind': 'completeness'" in line
    # no gate lets the source oracle decide it: skipped, not passed
    with gates(MAX_DP_CELLS=0, MAX_BRUTEFORCE_N=0):
        code, out, _ = run(capsys, "verify", "ss-to-knapsack",
                           "--family", "subset-sum")
    assert code == 4
    assert "0 violations, 1 skipped" in out
    assert _report_lines(out, "skipped") == [
        f"  skipped: source oracle: subset sum: instance over budget: "
        f"{inst!r}"]


def test_cert_check_reports_a_violation_and_a_skip(tmp_path, capsys,
                                                    monkeypatch):
    src = _write(tmp_path / "zkk.json", _ZKK_NO)
    code, out, _ = run(capsys, "cert-check", "zkk", src)
    assert code == 0 and "0 violations, 0 skipped" in out
    # a planted fault: the verifier accepts every certificate
    broken = dataclasses.replace(SCHEMES["zkk"], verify=lambda i, c: True)
    monkeypatch.setitem(SCHEMES, "zkk", broken)
    code, out, _ = run(capsys, "cert-check", "zkk", src)
    assert code == 1
    [line] = _report_lines(out, "violation")
    assert "'kind': 'soundness'" in line
    # a cap under the instance's products: skipped, not passed
    monkeypatch.setitem(SCHEMES, "zkk", ZKK_SCHEME)
    with gates(MAX_BRUTE_STATES=1):
        code, out, _ = run(capsys, "cert-check", "zkk", src)
    assert code == 4
    assert _report_lines(out, "skipped") == [
        f"  skipped: source oracle: group subset sum: products over budget: "
        f"{_ZKK_NO!r}"]


def test_entry_point_installed():
    import shutil
    import subprocess
    exe = shutil.which("redkit")
    if exe is None:
        pytest.skip("console script not on PATH")
    got = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert got.returncode == 0
    assert "reduce" in got.stdout


@pytest.mark.parametrize("payload", [
    # a string where a list belongs (was read as the items 1 and 2)
    {"problem": "subset_sum", "items": "12", "target": 3},
    {"problem": "group_subset_sum", "group": 5, "elements": [], "target": 0},
    {"problem": "coloring", "n": 2, "edges": [[0]], "bags": [[0, 1]]},
    {"problem": "and_sat", "num_vars": 1,
     "formulas": [{"problem": "subset_sum", "items": [], "target": "0"}]},
], ids=["string-items", "group-not-object", "edge-not-pair",
        "formula-not-cnf"])
def test_solve_rejects_misshapen_instance(tmp_path, capsys, payload):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    _usage_error(capsys, "solve", str(p))


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error: MemoryError\n"),
    (RecursionError("maximum recursion depth exceeded"),
     "error: RecursionError: maximum recursion depth exceeded\n"),
], ids=["memory", "recursion"])
def test_solve_out_of_memory_or_stack_is_a_resource_limit(
        tmp_path, capsys, monkeypatch, exc, line):
    def exhausted(inst):
        raise exc

    monkeypatch.setattr("redkit.cli.solve", exhausted)
    p = _write(tmp_path / "i.json", SubsetSumInstance((3, 5), 8))
    code, _, err = run(capsys, "solve", p)
    assert code == 3
    assert err == line


def test_solve_counter_machine_walk_back_failure_is_a_bug(
        tmp_path, capsys, monkeypatch):
    # masks whose -1 and +1 coordinates overlap: the forward search reaches
    # 0, and the walk back then finds no predecessor.  That can only be a
    # solver bug, so it ends in a traceback (exit 1), not in exit 3.
    monkeypatch.setattr("redkit.oracles.cm_masks",
                        lambda inst: ([1, 1], [0, 1], [True, True]))
    p = _write(tmp_path / "m.json", I.CounterMachineInstance(
        1, ((1,), (-1,)), (I.REQUIRED,) * 2))
    with pytest.raises(RuntimeError, match="reconstruction failed"):
        main(["solve", p])


def test_solve_rejects_deeply_nested_json(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    _usage_error(capsys, "solve", str(p))


def test_verify_cnf_to_counter_machine_chain(capsys):
    # the machines reach dimension 28; only the state count is bounded
    code, out, _ = run(capsys, "verify", "cnf-to-coloring+coloring-to-cm",
                       "--family", "cnf:vars=1,clauses=1,arity=2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True and rep["checked"] == 4 and rep["skipped"] == []


def test_permutation_path_round_trip(tmp_path, capsys):
    # gen cm -> reduce cm-to-permss -> solve: the exit code of solve on the
    # written target is the library verdict on that target
    from redkit.oracles import solve
    cm = tmp_path / "cm.json"
    assert main(["gen", "cm", "--ell", "1", "--n", "3", "--out", str(cm)]) == 0
    assert solve(loads(cm.read_text())).answer
    out = tmp_path / "t.json"
    runs = [("--synthesize",)] + [("--witness", format(v, "x"))
                                  for v in range(4)]
    verdicts = set()
    for extra in runs:
        code, _, _ = run(capsys, "reduce", "cm-to-permss", str(cm), *extra,
                         "--out", str(out))
        assert code == 0
        target = loads(out.read_text())
        assert isinstance(target.group, SymmetricGroup)
        expected = solve(target).answer
        verdicts.add(expected)
        code, text, _ = run(capsys, "solve", str(out))
        assert code == (0 if expected else 1)
        assert text.startswith("yes" if expected else "no")
        if extra == ("--synthesize",):
            assert expected
    assert verdicts == {True, False}


@pytest.mark.parametrize("element", [[0, 0, 1], [1, 0], [1, 0, 2, 3], 1],
                         ids=["not-a-permutation", "short", "long", "int"])
def test_solve_rejects_a_non_permutation_element(tmp_path, capsys, element):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "problem": "group_subset_sum", "group": {"family": "symmetric",
                                                 "k": 3},
        "elements": [[1, 2, 0], element], "target": [1, 2, 0]}))
    _usage_error(capsys, "solve", str(p))


# ---------------------------------------------------------------------------
# Whatever it is fed, the CLI ends with an exit code in 0-4, never in a
# traceback.

_VALID_JSON = st.sampled_from(I.KINDS).flatmap(INSTANCES.get).map(I.to_json)


@st.composite
def _family_spec(draw):
    """A ``--family`` spec: a known or made-up name, some of its parameters
    set to small integers (small, so that every family is cheap to start),
    and at times a piece that is not an integer parameter of the family."""
    name = draw(st.sampled_from(sorted(_FAMILIES) + ["", "ilp-", "x"]))
    pieces = [f"{key}={draw(st.integers(-3, 3))}"
              for key in _FAMILIES.get(name, (None, {}))[1]
              if draw(st.booleans())]
    if draw(st.booleans()):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(
            ["zz=1", "n", "n=", "n=x", "n=1.5", "n= 2", "n=0x3", "=1", ""])))
    if pieces or draw(st.booleans()):
        return f"{name}:{','.join(pieces)}"
    return name


def _outcome(capsys, argv):
    """The exit code and the standard output of ``argv``."""
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out


def _exit_code(capsys, argv):
    return _outcome(capsys, argv)[0]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=JSON_VALUES | SHAPED_INSTANCES | _VALID_JSON)
def test_solve_exit_code_on_any_instance_json(tmp_path, capsys, data):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(data))
    assert _exit_code(capsys, ["solve", str(p)]) in range(5)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reduction=st.sampled_from(sorted(REDUCTIONS)), family=_family_spec(),
       limit=st.integers(-1, 3))
def test_verify_exit_code_on_any_family_spec(capsys, reduction, family,
                                             limit):
    argv = ["verify", reduction, "--family", family, "--limit", str(limit)]
    assert _exit_code(capsys, argv) in range(5)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reduction=st.sampled_from(sorted(REDUCTIONS)),
       data=JSON_VALUES | SHAPED_INSTANCES | _VALID_JSON,
       extra=st.sampled_from([[], ["--synthesize"]]) |
       st.text(max_size=6).map(lambda text: ["--witness", text]))
def test_reduce_exit_code_on_any_instance_json(tmp_path, capsys, reduction,
                                               data, extra):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(data))
    argv = ["reduce", reduction, str(p)] + extra
    assert _exit_code(capsys, argv) in range(5)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.sampled_from(sorted(SCHEMES) + ["no-such-scheme"]),
       data=JSON_VALUES | SHAPED_INSTANCES | _VALID_JSON)
def test_cert_check_exit_code_on_any_instance_json(tmp_path, capsys, scheme,
                                                   data):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(data))
    assert _exit_code(capsys, ["cert-check", scheme, str(p)]) in range(5)


_GEN_KINDS = ["subset-sum", "knapsack", "ilp", "cnf", "unbounded", "zq",
              "coloring", "cm"]
_GEN_NUMBERS = ["--n", "--m", "--max", "--q", "--ell", "--vars", "--clauses",
                "--arity", "--target", "--seed"]
_GRAPHS = ["k3", "k4", "c5", "p4"]


@st.composite
def _gen_argv(draw):
    """``gen`` with a known or made-up kind, some numeric options in
    [-3, 40], and at times ``--graph``, ``--from-coloring`` or
    ``--variant``."""
    argv = ["gen", draw(st.sampled_from(_GEN_KINDS + ["nope"]))]
    for flag in _GEN_NUMBERS:
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(-3, 40)))]
    for flag, values in (("--graph", _GRAPHS), ("--from-coloring", _GRAPHS),
                         ("--variant", ["standard", "monotone", "zero_sum"])):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_gen_argv())
def test_gen_exit_code_on_any_options(capsys, argv):
    # an instance gen writes is one that solve accepts
    code, out = _outcome(capsys, argv)
    assert code in range(5)
    if code == 0:
        assert I.validate(I.loads(out)) == [], argv


@pytest.mark.parametrize("kind, target", [("subset-sum", "-3"),
                                          ("unbounded", "-1")])
def test_gen_refuses_a_negative_target(capsys, kind, target):
    code, out, err = run(capsys, "gen", kind, "--target", target)
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and "target must be nonnegative" in err


# The CLI smoke cases, run in-process (a modular source and a negative gen
# target have tests of their own above).  A row is one or more commands,
# every one but the last exiting 0, then the last one's exit code and a
# fragment of what it printed (stdout, then stderr).  ``{d}`` is the test's
# directory, which holds ``_SMOKE_FILES``.
_SMOKE_FILES = {
    "zkk-yes.json": {"problem": "group_subset_sum",
                     "group": {"family": "product", "k": 2},
                     "elements": [[1, 0], [0, 1], [1, 0]], "target": [0, 1]},
    "zkk-no.json": {"problem": "group_subset_sum",
                    "group": {"family": "product", "k": 2},
                    "elements": [[1, 0], [1, 0]], "target": [0, 1]},
    # 2 and 4 never sum to 7
    "uss-no.json": {"problem": "unbounded_subset_sum", "items": ["2", "4"],
                    "target": "7"},
    # its one counter allows no count: one 0-bit witness
    "cm-fixed-no.json": {"problem": "counter_machine", "dimension": 1,
                         "vectors": [[1]], "flags": ["R"]},
}
_PASS = ", 0 violations, 0 skipped"
_SMOKE = [
    ("verify ss-to-monotone --family subset-sum:n=2,max=4,tmax=7", 0, _PASS),
    ("verify ilp-to-monotone --family ilp-standard:m=1,n=3", 0, _PASS),
    ("verify knapsack-to-ss --family knapsack:n=2,max=3", 0, _PASS),
    ("verify cm-to-permss --family cm:ell=1,n=2", 0, _PASS),
    # dimension 2 to 3 vectors: exhaustive no-instances; to 4 vectors:
    # stratified over the counts a run can take; dimension 3, where
    # counters interact
    ("verify cm-to-permss --family cm:ell=2,n=3", 0, _PASS),
    ("verify cm-to-permss --family cm:ell=2,n=4", 0, _PASS),
    ("verify cm-to-permss --family cm:ell=3,n=2", 0, _PASS),
    ("verify ss-to-knapsack+knapsack-to-ss"
     " --family subset-sum:n=2,max=4,tmax=7", 0, _PASS),
    ("verify zq-to-ss --family zq:q=8,n=4", 0, _PASS),
    ("verify ilp-to-monotone --family ilp-standard:m=2,n=4", 0, _PASS),
    # a three-link chain sized from ilp-to-monotone's first listed witness
    ("verify ilp-to-monotone+monotone-to-ss+ss-to-monotone"
     " --family ilp-standard:m=2,n=2", 0, _PASS),
    (("gen unbounded --seed 1 --out {d}/u.json",
      "cert-check unbounded-ss {d}/u.json"), 0, _PASS),
    (("gen subset-sum --seed 1 --out {d}/ss.json",
      "cert-check full-ss {d}/ss.json"), 0, _PASS),
    ("cert-check zkk {d}/zkk-yes.json", 0, "(1 yes / 0 no)"),
    ("cert-check zkk {d}/zkk-no.json", 0, "(0 yes / 1 no)"),
    ("solve {d}/uss-no.json", 1, "no ("),
    # the 6 certificates whose running totals stay within 7 and 17 probes
    # of the invalid stratum
    ("cert-check unbounded-ss {d}/uss-no.json", 0, " 23 witnesses, "),
    # int() reads "0X_1" as 1
    (("gen subset-sum --seed 1 --out {d}/ss.json",
      "reduce ss-to-monotone {d}/ss.json --witness 0X_1"), 2,
     "error: bad witness hex"),
    ("reduce cm-to-permss {d}/cm-fixed-no.json --witness 1", 2,
     "error: witness hex wider than declared length"),
    (("reduce cm-to-permss {d}/cm-fixed-no.json --witness 0 --out {d}/t.json",
      "solve {d}/t.json"), 1, "no ("),
    # 30 items up to 10^12: past both of the subset-sum oracle's gates
    (("gen subset-sum --n 30 --max 1000000000000 --seed 1 --out {d}/big.json",
      "solve {d}/big.json"), 3, "error: subset sum: instance over budget"),
]


@pytest.mark.parametrize(
    "steps, code, fragment", _SMOKE,
    ids=[(s if isinstance(s, str) else s[-1]).replace("{d}/", "")
         for s, _, _ in _SMOKE])
def test_smoke_case(tmp_path, capsys, steps, code, fragment):
    for name, data in _SMOKE_FILES.items():
        (tmp_path / name).write_text(json.dumps(data) + "\n")
    *first, last = (steps,) if isinstance(steps, str) else steps
    for step in first:
        assert run(capsys, *step.format(d=tmp_path).split())[0] == 0, step
    got, out, err = run(capsys, *last.format(d=tmp_path).split())
    assert got == code, (out, err)
    assert fragment in out + err, (out, err)
