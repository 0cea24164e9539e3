import json
import os
import re
import subprocess
import sys

import pytest

from rlw.catalog import make_goedel, make_sugihara
from rlw.cli import main
from rlw.algebra import save_algebra_file


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_exit_codes(capsys):
    code, out = run(capsys, "decide-ap", "catalog:goedel:3")
    assert code == 0 and "AP" in out
    code, out = run(capsys, "decide-ap", "catalog:goedel:4")
    assert code == 1 and "NotAP" in out
    code, _ = run(capsys, "iso", "catalog:goedel:3", "catalog:goedel:3")
    assert code == 0
    code, _ = run(capsys, "iso", "catalog:goedel:3", "catalog:goedel:4")
    assert code == 1


def test_usage_error_exit_2(capsys):
    assert main(["decide-ap", "no-such-file.json"]) == 2
    assert main(["catalog", "nope", "3"]) == 2
    assert main(["no-such-command"]) == 2


def test_closed_output_pipe_exits_141():
    # about 108 KB of output, more than a pipe buffer holds, so the writes
    # after the reader has gone meet the closed pipe
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    with subprocess.Popen([sys.executable, "-m", "rlw.cli", "enumerate", "--size", "6"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_catalog_writes_file(tmp_path, capsys):
    out = tmp_path / "g3.json"
    code, _ = run(capsys, "catalog", "goedel", "3", "-o", str(out))
    assert code == 0
    from rlw import load_algebra
    A = load_algebra(out.read_text())
    assert A.key() == make_goedel(3).key()


def test_manifest_determinism(capsys):
    codes, manifests = [], []
    for _ in range(2):
        code, out = run(capsys, "decide-ap", "catalog:sugihara:4", "--json")
        doc = json.loads(out)
        doc.pop("wall_time_s")
        codes.append(code)
        manifests.append(json.dumps(doc, sort_keys=True))
    assert codes == [0, 0]
    assert manifests[0] == manifests[1]


# `decide-ap SPEC --cross-check --json`: exit code and manifest bytes with the
# wall time masked, as written by the backtracking hom search, before hom lists
# were read off Con x Sub
DECIDE_AP_MANIFESTS = {
    "catalog:goedel:5": (1, (
        '{"certificates": {"chains": ["G_5|04/~1", "G_5|04", "G_5|014", "G_5|0124", "G_5"], '
        '"cross_check": {"eap": false, "eap_witness": "<Span G_5|0,1,4 -> G_5 [0, 1, 4], '
        'G_5|0,1,4 -> G_5|0124 [0, 2, 3]>"}, "span_witness": {"A": 3, "B": "G_5", '
        '"C": "G_5|0124", "phi1": [0, 1, 4], "phi2": [0, 2, 3]}}, '
        '"command": ["decide-ap", "catalog:goedel:5", "--cross-check", "--json"], '
        '"format": "rlw-manifest/1", "inputs": [{"path": "catalog:goedel:5", '
        '"sha256": "5a230de56cd16c79667b0e522e63022a4446688ef883d13485770e54b17ab5d2"}], '
        '"parameters": {"cross_check": true}, "verdict": "NotAP", "wall_time_s": null}\n')),
    "catalog:sugihara:6": (1, (
        '{"certificates": {"chains": ["S_6|23/~1", "S_6|23", "S_6|0235/~3", "S_6|0235", '
        '"S_6/~5", "S_6"], "cross_check": {"eap": false, "eap_witness": '
        '"<Span S_6/~5|0,2,4 -> S_6/~5 [0, 2, 4], S_6/~5|0,2,4 -> S_6/~5 [1, 2, 3]>"}, '
        '"span_witness": {"A": 3, "B": "S_6/~5", "C": "S_6/~5", "phi1": [0, 2, 4], '
        '"phi2": [1, 2, 3]}}, '
        '"command": ["decide-ap", "catalog:sugihara:6", "--cross-check", "--json"], '
        '"format": "rlw-manifest/1", "inputs": [{"path": "catalog:sugihara:6", '
        '"sha256": "26e309cb78bf017caea2d6c90dfc03882e6c9228bd1475344e4325df9131a6d7"}], '
        '"parameters": {"cross_check": true}, "verdict": "NotAP", "wall_time_s": null}\n')),
    "catalog:luk:6:mv": (0, (
        '{"certificates": {"chains": ["L_6|06/~1", "L_6|06", "L_6|036", "L_6|0246", "L_6"], '
        '"cross_check": {"eap": true, "eap_witness": null}}, '
        '"command": ["decide-ap", "catalog:luk:6:mv", "--cross-check", "--json"], '
        '"format": "rlw-manifest/1", "inputs": [{"path": "catalog:luk:6:mv", '
        '"sha256": "6c3c2467de125c4af35ce59fa82249cd4215dff8932a723848eff49e25213422"}], '
        '"parameters": {"cross_check": true}, "verdict": "AP", "wall_time_s": null}\n')),
    "catalog:rsa:3": (1, (
        '{"certificates": {"chains": ["R_3|2", "R_3|02", "R_3"], "cross_check": '
        '{"eap": false, "eap_witness": "<Span R_3|0,2 -> R_3 [0, 2], '
        'R_3|0,2 -> R_3 [1, 2]>"}, "span_witness": {"A": 2, "B": "R_3", "C": "R_3", '
        '"phi1": [0, 2], "phi2": [1, 2]}}, '
        '"command": ["decide-ap", "catalog:rsa:3", "--cross-check", "--json"], '
        '"format": "rlw-manifest/1", "inputs": [{"path": "catalog:rsa:3", '
        '"sha256": "92ac3cfa5d3c708767d829f587065ab39ac29759ee577c6ac67190dd4124fcba"}], '
        '"parameters": {"cross_check": true}, "verdict": "NotAP", "wall_time_s": null}\n')),
}


def test_decide_ap_manifests_pinned(capsys):
    # manifests are byte-identical apart from wall_time_s, which is the last key
    for spec, want in DECIDE_AP_MANIFESTS.items():
        code, out = run(capsys, "decide-ap", spec, "--cross-check", "--json")
        masked = re.sub(r'"wall_time_s": [^}]*}', '"wall_time_s": null}', out)
        assert (code, masked) == want, spec


def test_catalog_addressing_matches_file(tmp_path, capsys):
    # catalog:<family>:<params> resolves identically to the generated file
    path = tmp_path / "s4.json"
    save_algebra_file(make_sugihara(4), path)
    code1, out1 = run(capsys, "classify", "catalog:sugihara:4", "--json")
    code2, out2 = run(capsys, "classify", str(path), "--json")
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["certificates"] == d2["certificates"]


def test_con_sub_cep_classify(tmp_path, capsys):
    code, out = run(capsys, "con", "catalog:goedel:3")
    assert code == 0 and "3 congruences" in out
    code, out = run(capsys, "sub", "catalog:dmm:2")
    assert code == 0 and "2 subuniverses" in out
    code, out = run(capsys, "cep", "catalog:cepfail")
    assert code == 1 and "CEP fails" in out
    code, out = run(capsys, "cep", "catalog:goedel:4")
    assert code == 0
    code, out = run(capsys, "classify", "catalog:strictsimp")
    assert code == 0 and "strictly_simple=True" in out


def test_hom_cli(capsys):
    code, out = run(capsys, "hom", "catalog:goedel:2", "catalog:goedel:3",
                    "--injective", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["certificates"]["homs"] == [
        {"source": "G_2", "target": "G_3", "mapping": [0, 2]}]


def test_enumerate_cli(capsys):
    code, out = run(capsys, "enumerate", "--size", "3", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["certificates"]["count"] == 3
    code, out = run(capsys, "enumerate", "--size", "4", "--prop", "idempotent")
    assert code == 0 and out.startswith("6 chains")


def test_nsum_factor_cli(tmp_path, capsys):
    s3 = tmp_path / "s3.json"
    save_algebra_file(make_sugihara(3).reduct(), s3)
    glued = tmp_path / "sum.json"
    code, _ = run(capsys, "nsum", str(s3), str(s3), "-o", str(glued))
    assert code == 0
    code, out = run(capsys, "factor", str(glued), "--json")
    doc = json.loads(out)
    assert code == 0 and len(doc["certificates"]["components"]) == 2


def test_span_file_and_refute(tmp_path, capsys):
    span_doc = {"format": "rlw-span/1", "A": "catalog:A1", "B": "catalog:B1",
                "C": "catalog:C1", "phi1": [0, 1, 3, 4], "phi2": [0, 1, 3, 4]}
    span_path = tmp_path / "knotted-span-1.json"
    span_path.write_text(json.dumps(span_doc))
    # a refutation is a certified negative verdict: exit 1 with the trace
    code, out = run(capsys, "refute", "--span", str(span_path))
    assert code == 1 and "Refuted" in out
    code, out = run(capsys, "refute", "--span", str(span_path), "--json")
    doc = json.loads(out)
    assert doc["certificates"]["replayed"] is True
    # amalgamate against an explicit class: identity-style span is found
    span2 = {"format": "rlw-span/1", "A": "catalog:goedel:3",
             "B": "catalog:goedel:3", "C": "catalog:goedel:3",
             "phi1": [0, 1, 2], "phi2": [0, 1, 2]}
    p2 = tmp_path / "id-span.json"
    p2.write_text(json.dumps(span2))
    code, out = run(capsys, "amalgamate", "--span", str(p2),
                    "--class", "list", "catalog:goedel:3")
    assert code == 0 and "Found" in out


@pytest.mark.parametrize("sig", [["--sig", "f"], []])
def test_amalgamate_builds_no_member_smaller_than_the_span(tmp_path, capsys, monkeypatch,
                                                            sig):
    # knotted span 2 has |B| = 8 and |C| = 10, so no f-chain of size <= 6 can
    # host it, and a class without f designates other constants than B: the
    # verdict and the class are reported without listing a single chain
    from rlw import amalgam, repro
    from rlw.completion import CompletionResult
    s = repro._knotted_span(2)
    span_path = tmp_path / "knotted-span-2.json"
    span_path.write_text(json.dumps({
        "format": "rlw-span/1", "A": "catalog:A2", "B": "catalog:B2", "C": "catalog:C2",
        "phi1": list(s.phi1.mapping), "phi2": list(s.phi2.mapping)}))
    calls = []
    monkeypatch.setattr(amalgam, "complete_partial",
                        lambda *args: calls.append(args) or CompletionResult((), 0))
    monkeypatch.setattr(amalgam, "chains_at", lambda *args: calls.append(args) or iter(()))
    code, out = run(capsys, "amalgamate", "--span", str(span_path),
                    "--class", "bounded", "6", *sig, "--json")
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "NotFoundExhaustive"
    assert doc["parameters"] == {"one_sided": False, "class": {
        "kind": "bounded", "bound": 6, "signature": sig[1:], "require": {}}}
    assert calls == []


def test_class_check_cli(capsys):
    code, out = run(capsys, "class-check", "--1ap", "catalog:goedel:1",
                    "catalog:goedel:2", "catalog:goedel:3")
    assert code == 0 and "holds" in out
    code, out = run(capsys, "class-check", "--eap", "catalog:goedel:1",
                    "catalog:goedel:2", "catalog:goedel:3", "catalog:goedel:4")
    assert code == 1 and "fails" in out


def test_decide_ap_fast_path(capsys):
    code, out = run(capsys, "decide-ap", "catalog:strictsimp",
                    "--fast-path", "auto")
    assert code == 0 and "strictly simple" in out


def test_complete_cli(tmp_path, capsys):
    partial = {"format": "rlw-partial/1", "name": "p", "size": 4,
               "leq": "chain", "unit": 1,
               "mult": [[None] * 4 for _ in range(4)],
               "constants": {"f": 2}, "labels": ["bot", "e", "f", "top"],
               "constraints": {"commutative": True, "involutive_f": True,
                               "idempotent": [0, 1, 3], "non_idempotent": [2],
                               "equations": ["f*f=top"]}}
    p = tmp_path / "a1.json"
    p.write_text(json.dumps(partial))
    code, out = run(capsys, "complete", str(p), "--all", "--json")
    doc = json.loads(out)
    assert code == 0 and len(doc["certificates"]["completions"]) == 1
    assert doc["certificates"]["completions"][0]["mult"] == \
        [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 3], [0, 3, 3, 3]]


def test_hom_commute_cli(capsys):
    code, out = run(capsys, "hom", "catalog:goedel:4", "catalog:goedel:4",
                    "--commute", "catalog:goedel:3", "0,1,3", "0,2,3", "--json")
    doc = json.loads(out)
    maps = [tuple(h["mapping"]) for h in doc["certificates"]["homs"]]
    assert code == 0 and (0, 2, 3, 3) in maps
    for m in maps:
        assert (m[0], m[1], m[3]) == (0, 2, 3)


def test_refute_unknown_exit_0(tmp_path, capsys):
    span2 = {"format": "rlw-span/1", "A": "catalog:goedel:3",
             "B": "catalog:goedel:3", "C": "catalog:goedel:3",
             "phi1": [0, 1, 2], "phi2": [0, 1, 2]}
    p2 = tmp_path / "id-span.json"
    p2.write_text(json.dumps(span2))
    code, out = run(capsys, "refute", "--span", str(p2))
    assert code == 0 and "Unknown" in out


def test_class_check_trivial(capsys):
    code, out = run(capsys, "class-check", "--1ap", "catalog:goedel:1")
    assert code == 0 and "holds" in out


def test_repro_cli(capsys):
    code, out = run(capsys, "repro", "fig4")
    assert code == 0 and "PASS" in out
    code, out = run(capsys, "repro", "fig1", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "pass"


def test_repro_unknown_target_usage_error(capsys):
    assert main(["repro", "nope"]) == 2


def _bad_files(tmp_path):
    """Malformed input files, by name."""
    g3 = json.loads(make_goedel(3).save())
    null_mult = dict(g3, mult=[[0, None, 0], [0, 1, 1], [0, 1, 2]])
    partial = {"format": "rlw-partial/1", "size": 2, "leq": "chain", "unit": 1,
               "mult": [[None, None], [None, None]]}
    span = {"format": "rlw-span/1", "A": "catalog:goedel:2",
            "B": "catalog:goedel:3", "C": "catalog:goedel:3"}
    docs = {"list.json": [1, 2], "null-mult.json": null_mult,
            "constants-list.json": dict(g3, constants=[0]),
            "constant-bool.json": dict(g3, constants={"f": True}),
            "leq-ragged.json": dict(g3, leq=[[1, 1], [0, 1]]),
            "bad-constraints.json": dict(partial, constraints={"idempotent": "0"}),
            "partial-chain3.json": dict(partial, size=3, unit=2, mult=[[None] * 3] * 3),
            "partial-antichain.json": dict(partial, leq=[[1, 0], [0, 1]]),
            "partial-intransitive.json": dict(partial, size=3, unit=2,
                                              leq=[[1, 1, 0], [0, 1, 1], [0, 0, 1]],
                                              mult=[[None] * 3] * 3),
            "partial-constant-name.json": dict(partial, constants={"g": 1}),
            "partial-constant-range.json": dict(partial, constants={"f": 7}),
            "partial-constant-bool.json": dict(partial, constants={"f": True}),
            "partial-bot.json": dict(partial, constants={"bot": 1}),
            "partial-commutative.json": dict(partial, constraints={"commutative": "yes"}),
            "partial-repeated-labels.json": dict(partial, size=3, unit=2,
                                                 mult=[[None] * 3] * 3, labels=["a", "a", "e"]),
            "partial-labels-int-bool.json": dict(partial, labels=[0, True]),
            "partial-labels-null.json": dict(partial, labels=[None, "a"]),
            "partial-labels-list.json": dict(partial, labels=[["a"], "b"]),
            "span-short-phi.json": dict(span, phi1=[0], phi2=[0, 2]),
            "span-no-phi.json": span, "not-json.json": "{",
            "span.json": dict(span, phi1=[0, 2], phi2=[0, 2]),
            "span-not-hom.json": dict(span, phi1=[0, 1], phi2=[0, 2]),
            "span-not-injective.json": dict(span, A="catalog:rsa:3", B="catalog:rsa:2",
                                            C="catalog:rsa:3", phi1=[0, 1, 1],
                                            phi2=[0, 1, 2]),
            # wrong JSON types for constants, constraints and name
            "constants-empty-list.json": dict(g3, constants=[]),
            "constants-zero.json": dict(g3, constants=0),
            "constants-false.json": dict(g3, constants=False),
            "constants-empty-string.json": dict(g3, constants=""),
            "name-number.json": dict(g3, name=5),
            "partial-constraints-list.json": dict(partial, constraints=[]),
            "partial-constraints-zero.json": dict(partial, constraints=0),
            "partial-name-list.json": dict(partial, name=["x"]),
            # leq cells are the ints 0 and 1, span maps JSON lists
            "leq-float.json": dict(g3, leq=[[1, 1.0, 1], [0, 1, 1], [0, 0, 1]]),
            "leq-bool.json": dict(g3, leq=[[True, 1, 1], [0, 1, 1], [0, 0, 1]]),
            "span-comma-phi.json": dict(span, phi1="0,2", phi2=[0, 2]),
            # equations are checked on load, also when no completion exists
            "partial-contradictory-bad-term.json": dict(
                partial, size=3, unit=2, mult=[[None, 2, None], [None] * 3, [None] * 3],
                constraints={"equations": ["a*=a"]}),
            "partial-contradictory-unlabelled.json": dict(
                partial, size=3, unit=2, mult=[[None, 2, None], [None] * 3, [None] * 3],
                labels=["a", "b", "e"], constraints={"equations": ["q*q=q"]}),
            "partial-misspelled-constraint.json": dict(
                partial, constraints={"non_idempotnt": [1]}),
            # demands that name what the partial does not have, on a partial
            # with completions and on one without
            "partial-top-constant.json": dict(
                partial, size=3, unit=2, mult=[[None] * 3] * 3,
                constraints={"equations": ["top=top"]}),
            "partial-contradictory-top-constant.json": dict(
                partial, size=3, unit=2, mult=[[None, 2, None], [None] * 3, [None] * 3],
                constraints={"equations": ["top=top"]}),
            "partial-involutive-no-f.json": dict(partial, constraints={"involutive_f": True}),
            "partial-contradictory-involutive-no-f.json": dict(
                partial, size=3, unit=2, mult=[[None, 2, None], [None] * 3, [None] * 3],
                constraints={"involutive_f": True}),
            "partial-arrow-not-commutative.json": dict(
                partial, size=3, unit=2, mult=[[None] * 3] * 3, labels=["a", "b", "e"],
                constraints={"equations": ["a->b=a->b"]}),
            # equations nested deeper than the parser and the checks recurse
            **{f"partial-deep-{kind}.json": dict(
                partial, size=3, unit=2, mult=[[None] * 3] * 3, labels=["a", "b", "e"],
                constraints={"equations": [eq]})
               for kind, eq in (("parens", "(" * 3000 + "a" + ")" * 3000 + "=a"),
                                ("product", "*".join(["a"] * 5000) + "=a"),
                                ("negation", "~" * 3000 + "a=a"))},
            "knotted-span-1.json": {"format": "rlw-span/1", "A": "catalog:A1",
                                    "B": "catalog:B1", "C": "catalog:C1",
                                    "phi1": [0, 1, 3, 4], "phi2": [0, 1, 3, 4]}}
    for name, doc in docs.items():
        (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    # bytes that are not UTF-8, and JSON nested deeper than the parser recurses
    (tmp_path / "bad-bytes.json").write_bytes(b"\xff\xfe")
    (tmp_path / "deep-nesting.json").write_text("[" * 200000)


@pytest.mark.parametrize("argv", [
    ["catalog", "goedel", "x"],
    ["catalog", "goedel"],
    ["catalog", "com", "1"],
    ["complete", "{tmp}/list.json"],
    ["complete", "{tmp}/bad-constraints.json"],
    ["complete", "{tmp}/partial-antichain.json"],
    ["complete", "{tmp}/partial-intransitive.json"],
    ["complete", "{tmp}/partial-constant-name.json"],
    ["complete", "{tmp}/partial-constant-range.json"],
    ["complete", "{tmp}/partial-constant-bool.json"],
    ["complete", "{tmp}/partial-bot.json"],
    ["complete", "{tmp}/partial-commutative.json"],
    ["con", "{tmp}/null-mult.json"],
    ["con", "{tmp}/constants-list.json"],
    ["con", "{tmp}/constant-bool.json"],
    ["con", "{tmp}/leq-ragged.json"],
    ["con", "{tmp}/not-json.json"],
    ["con", "catalog:luk:x"],
    # a figure takes no parameters, in either addressing
    ["catalog", "A1", "7"],
    ["con", "catalog:A1:7"],
    ["hom", "catalog:goedel:4", "catalog:goedel:4", "--commute",
     "catalog:goedel:3", "0,x", "0,1"],
    ["hom", "catalog:goedel:4", "catalog:goedel:4", "--commute",
     "catalog:goedel:3", "0,1", "0,2,3"],
    ["refute", "--span", "{tmp}/span-short-phi.json"],
    ["refute", "--span", "{tmp}/span-no-phi.json"],
    ["refute", "--span", "{tmp}/not-json.json"],
    ["amalgamate", "--span", "{tmp}/span.json", "--class", "bounded", "x"],
    ["amalgamate", "--span", "{tmp}/span.json", "--class", "bounded"],
    ["enumerate", "--size", "3", "--prop", "no-such-flag"],
    # --prop takes boolean flags only, not n_potent or equations
    ["enumerate", "--size", "3", "--prop", "equations"],
    ["enumerate", "--size", "3", "--prop", "n_potent"],
    ["amalgamate", "--span", "{tmp}/span.json", "--class", "bounded", "3", "--prop", "n_potent"],
    ["amalgamate", "--span", "{tmp}/span.json", "--class", "bounded", "3",
     "--prop", "equations"],
    # unknown or repeated constant names in the signature
    ["enumerate", "--size", "3", "--sig", "foo"],
    ["enumerate", "--size", "3", "--sig", "f,f"],
    ["amalgamate", "--span", "{tmp}/span.json", "--class", "bounded", "3", "--sig", "foo"],
    ["amalgamate", "--span", "{tmp}/span.json", "--class", "bounded", "3", "--sig", "f,f"],
    ["class-check", "--eap", "catalog:goedel:3"],
    # generators or members that designate different constants
    ["decide-ap", "catalog:luk:2:mv", "catalog:luk:2:hoop"],
    ["class-check", "--1ap", "catalog:goedel:2", "catalog:goedel:1",
     "catalog:luk:1:hoop", "catalog:rsa:1"],
    ["refute", "--span", "{tmp}/span-not-hom.json"],        # unit not preserved
    ["refute", "--span", "{tmp}/span-not-injective.json"],
    ["complete", "{tmp}/partial-chain3.json", "--limit", "0"],
    # labels are names: a repeated one would make equations ambiguous
    ["complete", "{tmp}/partial-repeated-labels.json"],
    # constants and constraints are objects (or absent or null), a name a string
    ["con", "{tmp}/constants-empty-list.json"],
    ["con", "{tmp}/constants-zero.json"],
    ["con", "{tmp}/constants-false.json"],
    ["con", "{tmp}/constants-empty-string.json"],
    ["con", "{tmp}/name-number.json"],
    ["complete", "{tmp}/partial-constraints-list.json"],
    ["complete", "{tmp}/partial-constraints-zero.json"],
    ["complete", "{tmp}/partial-name-list.json"],
    # labels are strings: 0 and true would load as the labels '0' and 'True'
    ["complete", "{tmp}/partial-labels-int-bool.json"],
    ["complete", "{tmp}/partial-labels-null.json"],
    ["complete", "{tmp}/partial-labels-list.json"],
    # leq cells 1.0 and true loaded as 1, a span map "0,2" as [0, 2]
    ["con", "{tmp}/leq-float.json"],
    ["con", "{tmp}/leq-bool.json"],
    ["refute", "--span", "{tmp}/span-comma-phi.json"],
    # equations of a partial with no completion were never parsed
    ["complete", "{tmp}/partial-contradictory-bad-term.json"],
    ["complete", "{tmp}/partial-contradictory-unlabelled.json"],
    # unknown keys are refused, not ignored
    ["complete", "{tmp}/partial-misspelled-constraint.json"],
    # every demand is checked before the search, whether or not a completion
    # or a member exists: constants must be designated (or labels), an
    # f-property needs f, and '->' needs commutative: true
    ["complete", "{tmp}/partial-top-constant.json"],
    ["complete", "{tmp}/partial-contradictory-top-constant.json"],
    ["complete", "{tmp}/partial-involutive-no-f.json"],
    ["complete", "{tmp}/partial-contradictory-involutive-no-f.json"],
    ["complete", "{tmp}/partial-arrow-not-commutative.json"],
    ["amalgamate", "--span", "{tmp}/knotted-span-1.json", "--class", "bounded", "5",
     "--prop", "involutive_f"],
    ["enumerate", "--size", "2", "--prop", "cyclic_f"],
    # files that are not UTF-8 or nest too deeply: one error line, no traceback
    ["con", "{tmp}/bad-bytes.json"],
    ["complete", "{tmp}/bad-bytes.json"],
    ["refute", "--span", "{tmp}/bad-bytes.json"],
    ["con", "{tmp}/deep-nesting.json"],
    ["complete", "{tmp}/partial-deep-parens.json"],
    ["complete", "{tmp}/partial-deep-product.json"],
    ["complete", "{tmp}/partial-deep-negation.json"],
])
def test_malformed_input_exit_2(tmp_path, capsys, argv):
    _bad_files(tmp_path)
    code = main([a.format(tmp=tmp_path) for a in argv])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_repro_unknown_target_exit_2(capsys):
    # run_repro is the one check of a target name: one error line, no usage text
    code = main(["repro", "nosuch"])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 2 and captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error: unknown repro target 'nosuch'")


@pytest.mark.parametrize("name,value,target", [
    ("RLW_BOUND", "abc", "fig6"), ("RLW_BOUND", "-1", "fig6"), ("RLW_BOUND", "0", "fig3"),
    ("RLW_BOUND", "2.5", "godel"), ("RLW_SEED", "x", "godel"), ("RLW_SEED", "", "comdecomp")])
def test_repro_bad_environment_exit_2(capsys, monkeypatch, name, value, target):
    # a bound or seed that is not an integer, or a bound below 1, is bad
    # input: one error line and exit 2, not a traceback or a vacuous PASS
    monkeypatch.setenv(name, value)
    code = main(["repro", target])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 2 and captured.out == ""
    assert len(lines) == 1 and lines[0].startswith(f"error: {name}=")


def test_repro_manifest_byte_identical(capsys, monkeypatch):
    # only wall_time_s may differ between two runs of the same command
    monkeypatch.setenv("RLW_BOUND", "4")
    outs = []
    for _ in range(2):
        code, out = run(capsys, "repro", "fig5", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["parameters"]["bound"] == 4
        doc["wall_time_s"] = None
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]
