"""Command-line interface: outputs, exit codes, schema validity."""

import io
import json
import sys
import time
from datetime import datetime

import jsonschema
import pytest

from conftest import load_schema
from schottky_workbench import cli, lattices, schottky
from schottky_workbench import indices as idx
from schottky_workbench.cache import ENV_CACHE_PATH, CountCache
from schottky_workbench.cli import main, parse_tau
from schottky_workbench.expansion import FourierExpansion, SiegelPoint
from schottky_workbench.lattices import Lattice, lattice_by_id


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_tau_scalar_forms():
    assert parse_tau("i", 1).tau[0][0] == 1j
    assert parse_tau("1.2i", 1).tau[0][0] == 1.2j
    assert parse_tau("0.3+1.2i", 1).tau[0][0] == 0.3 + 1.2j
    two = parse_tau("1.5i", 2)
    assert two.tau[0][0] == 1.5j and two.tau[0][1] == 0


def test_parse_tau_matrix_form():
    pt = parse_tau('[[[0.0, 1.1], [0.1, 0.2]], [[0.1, 0.2], [0.0, 1.3]]]', 2)
    assert isinstance(pt, SiegelPoint)
    assert pt.tau[0][1] == 0.1 + 0.2j


def test_parse_tau_rejects_garbage():
    with pytest.raises(Exception):
        parse_tau("one point two eye", 1)


def test_lattice_enum(capsys):
    code, doc = run(capsys, "lattice-enum", "--lattice", "E8",
                    "--max-norm", "4")
    assert code == 0
    assert doc["shell_sizes"] == {"0": 1, "2": 240, "4": 2160}
    jsonschema.validate(doc, load_schema("lattice-enum.schema.json"))
    code, doc = run(capsys, "lattice-enum", "--lattice", "E8",
                    "--max-norm", "4", "--vectors")
    assert code == 0
    assert [len(doc["vectors"][m]) for m in "024"] == [1, 240, 2160]
    jsonschema.validate(doc, load_schema("lattice-enum.schema.json"))


@pytest.mark.parametrize("lattice,max_norm", [("E8", "8"), ("D16plus", "4")])
def test_lattice_enum_sizes_count_only(capsys, monkeypatch, lattice,
                                       max_norm):
    # without --vectors the sizes come from the modular form and nothing is
    # walked; with it the built shells' lengths agree with the form
    def forbidden(*args, **kwargs):
        raise AssertionError("lattice-enum walked without --vectors")

    named = lattice_by_id(lattice)
    fresh = Lattice(named.name, named.rank, named.gram)    # an empty store
    with monkeypatch.context() as patch:
        patch.setattr(cli, "short_vector_shells", forbidden)
        patch.setattr(lattices, "_vectors", forbidden)
        patch.setattr(cli, "lattice_by_id", {lattice: fresh}.__getitem__)
        code, counted = run(capsys, "lattice-enum", "--lattice", lattice,
                            "--max-norm", max_norm)
    assert code == 0 and "vectors" not in counted
    assert fresh._store["shells"] == {}
    jsonschema.validate(counted, load_schema("lattice-enum.schema.json"))
    code, built = run(capsys, "lattice-enum", "--lattice", lattice,
                      "--max-norm", max_norm, "--vectors")
    assert code == 0
    assert counted["shell_sizes"] == built["shell_sizes"]
    assert {m: len(v) for m, v in built["vectors"].items()} == \
        built["shell_sizes"]


def test_lattice_enum_rejects_odd_norm(capsys):
    code, doc = run(capsys, "lattice-enum", "--lattice", "E8",
                    "--max-norm", "3")
    assert code == 2 and doc.keys() == {"error"}


def test_theta_coeffs_and_schema(capsys):
    code, doc = run(capsys, "theta-coeffs", "--lattice", "E8",
                    "--genus", "1", "--max-trace", "4")
    assert code == 0
    jsonschema.validate(doc, load_schema("fourier-expansion.schema.json"))
    assert [e["a"] for e in doc["entries"]] == ["1", "240", "2160"]


def test_siegel_phi_subcommand(capsys, tmp_path, monkeypatch):
    code, doc = run(capsys, "theta-coeffs", "--lattice", "E8",
                    "--genus", "2", "--max-trace", "4")
    src = tmp_path / "exp.json"
    src.write_text(json.dumps(doc))
    code, phi = run(capsys, "siegel-phi", "--input", str(src))
    assert code == 0
    assert phi["genus"] == 1
    assert [e["a"] for e in phi["entries"]] == ["1", "240", "2160"]
    jsonschema.validate(phi, load_schema("fourier-expansion.schema.json"))
    # the same document from standard input
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, piped = run(capsys, "siegel-phi", "--input", "-")
    assert code == 0 and piped["entries"] == phi["entries"]


def test_index_listed_twice_is_an_input_error(capsys, tmp_path):
    _, doc = run(capsys, "theta-coeffs", "--lattice", "E8", "--genus", "1",
                 "--max-trace", "2")
    doc["entries"].append({"S": [2], "a": "7"})      # E8 has 240 roots
    with pytest.raises(ValueError, match="listed twice"):
        FourierExpansion.from_json(doc)
    # a genus-2 document the Siegel operator would otherwise accept
    _, doc = run(capsys, "theta-coeffs", "--lattice", "E8", "--genus", "2",
                 "--max-trace", "2")
    doc["entries"].append(dict(doc["entries"][-1], a="7"))
    src = tmp_path / "twice.json"
    src.write_text(json.dumps(doc))
    code, out = run(capsys, "siegel-phi", "--input", str(src))
    assert code == 2 and out.keys() == {"error"}
    assert "listed twice" in out["error"]


@pytest.mark.parametrize("mutate", [
    lambda doc: [doc],
    lambda doc: dict(doc, entries=5),
    lambda doc: dict(doc, genus=None),
    lambda doc: dict(doc, genus=2.5),
    lambda doc: dict(doc, version=True),
    lambda doc: dict(doc, entries=[dict(doc["entries"][0], a=True)]),
    lambda doc: dict(doc, entries=[dict(doc["entries"][0], a="\u0661")]),
    lambda doc: dict(doc, entries=[dict(doc["entries"][1], S=[0, 0, 2.5])]),
], ids=["array", "entries-int", "genus-null", "genus-float", "version-bool",
        "a-bool", "a-non-ascii-digit", "S-float"])
def test_siegel_phi_refuses_malformed_documents(capsys, tmp_path, mutate):
    _, doc = run(capsys, "theta-coeffs", "--lattice", "E8", "--genus", "2",
                 "--max-trace", "2")
    assert doc["entries"][1]["S"] == [0, 0, 2]
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(mutate(doc)))
    code, out = run(capsys, "siegel-phi", "--input", str(src))
    assert code == 2 and out.keys() == {"error"}
    assert "bad expansion document" in out["error"]


@pytest.mark.parametrize("genus, max_trace",
                         [(3, 40), (4, 20), (160, 2), (30, 0)])
def test_siegel_phi_refuses_oversized_documents(capsys, tmp_path, monkeypatch,
                                                genus, max_trace):
    def refuse(*args):
        raise AssertionError("an index table was built")

    monkeypatch.setattr(idx, "enumerate_indices", refuse)
    src = tmp_path / "big.json"
    src.write_text(json.dumps(
        {"format": "fourier-expansion", "version": 1, "genus": genus,
         "weight": 4, "max_trace": max_trace, "entries": []}))
    code, out = run(capsys, "siegel-phi", "--input", str(src))
    assert code == 2 and out.keys() == {"error"}
    assert "is past 50" in out["error"]


def test_schottky_verify_pass(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_CACHE_PATH, str(tmp_path / "c.jsonl"))
    code, doc = run(capsys, "schottky-verify", "--genus", "1",
                    "--max-trace", "8")
    assert code == 0
    assert doc["status"] == "pass"
    jsonschema.validate(doc, load_schema("verification-report.schema.json"))


def test_schottky_verify_genus4_below_first_nonzero(capsys, tmp_path,
                                                    monkeypatch):
    # F_4's first nonzero coefficient has trace 8, so a trace-4 scan finds
    # none and the genus >= 4 verdict is a failure
    monkeypatch.setenv(ENV_CACHE_PATH, str(tmp_path / "c.jsonl"))
    builds = []
    real = schottky.schottky_expansion

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(schottky, "schottky_expansion", counted)
    for _ in range(2):
        code, doc = run(capsys, "schottky-verify", "--genus", "4",
                        "--max-trace", "4")
        assert code == 1
        assert doc["status"] == "fail"
        assert doc["nonzero_indices"] == []
        assert "first_nonzero" not in doc
        assert doc["checked"] == 39
        jsonschema.validate(doc,
                            load_schema("verification-report.schema.json"))
    assert len(builds) == 2          # one build per call


def test_eval_two_paths(capsys):
    code, doc = run(capsys, "eval", "--lattice", "E8", "--genus", "1",
                    "--tau", "i", "--max-trace", "8", "--budget", "8")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["rel_difference"] <= 1e-8
    jsonschema.validate(doc, load_schema("verification-report.schema.json"))


def test_eval_refuses_a_bad_budget_before_counting(capsys, tmp_path):
    for budget in ("5", "-2"):
        path = tmp_path / f"budget{budget}.jsonl"
        code, doc = run(capsys, "eval", "--lattice", "E8", "--genus", "2",
                        "--max-trace", "6", "--budget", budget, "--tau",
                        "1.2i", "--cache", str(path))
        assert code == 2 and doc.keys() == {"error"}, doc
        assert "norm_budget" in doc["error"]
        assert not path.exists()


def test_fay_check_subcommand(capsys, tmp_path, monkeypatch):
    data = {"genus": 1, "tau": [[[0.0, 1.3]]], "v_a": [0.1], "v_b": [0.2],
            "aj": [0.3], "c1": 0.2, "c2": 0.1}
    src = tmp_path / "deg.json"
    src.write_text(json.dumps(data))
    built = []

    def theta_expansion(lat, g, max_trace, cache=None):
        built.append(g)
        return real(lat, g, max_trace, cache=cache)

    real = cli.theta_expansion
    monkeypatch.setattr(cli, "theta_expansion", theta_expansion)
    code, doc = run(capsys, "fay-check", "--input", str(src),
                    "--max-trace", "8")
    assert code == 0
    assert doc["status"] == "pass"
    jsonschema.validate(doc, load_schema("verification-report.schema.json"))
    # one expansion, the genus-2 form; the genus-1 side is its Siegel image
    assert built == [2]

    def forbidden(*args, **kwargs):
        raise AssertionError("fay-check built an expansion")

    # a bad document is refused as it is read, before any expansion; json
    # reads NaN, Infinity and 1e400 as floats
    monkeypatch.setattr(cli, "theta_expansion", forbidden)
    for bad in (dict(data, genus=1.7),
                {"genus": 2, "tau": [[[0, 1]]], "v_a": [0.1], "v_b": [0.2]},
                dict(data, tau=[[[0.0, True]]]),
                dict(data, tau=[[[0.0, "1.3"]]]),
                dict(data, c2=10 ** 400),
                dict(data, c1=float("nan")),
                dict(data, v_a=[float("inf")]),
                dict(data, tau=[[[float("nan"), 1.3]]])):
        src.write_text(json.dumps(bad))
        code, doc = run(capsys, "fay-check", "--input", str(src),
                        "--max-trace", "8")
        assert code == 2 and doc.keys() == {"error"}, bad
        assert "bad degeneration-data document" in doc["error"]


def test_fay_check_refuses_a_genus_past_the_table_bound(capsys, tmp_path,
                                                        monkeypatch):
    def document(g):
        path = tmp_path / f"genus{g}.json"
        path.write_text(json.dumps({
            "genus": g, "v_a": [0.1] * g, "v_b": [0.2] * g,
            "tau": [[[0.0, 1.2 if p == q else 0.0] for q in range(g)]
                    for p in range(g)]}))
        return str(path)

    def forbidden(*args, **kwargs):
        raise AssertionError("fay-check built a table past the bound")

    monkeypatch.setattr(cli, "theta_expansion", forbidden)
    monkeypatch.setattr(idx, "index_table", forbidden)
    # genus 12 at the default trace 6 asks for a genus-13 table: 13 x 6 > 50
    start = time.monotonic()
    code, doc = run(capsys, "fay-check", "--input", document(12))
    assert time.monotonic() - start < 1
    assert code == 2 and doc.keys() == {"error"}
    assert "13 x 6 is past 50" in doc["error"]
    # the bound counts max(max_trace, 2), as siegel-phi does
    code, doc = run(capsys, "fay-check", "--input", document(25),
                    "--max-trace", "0")
    assert code == 2 and "26 x 2 is past 50" in doc["error"]


def test_cache_stats_and_verify(capsys, tmp_path, monkeypatch):
    cache_path = tmp_path / "c.jsonl"
    monkeypatch.setenv(ENV_CACHE_PATH, str(cache_path))
    run(capsys, "theta-coeffs", "--lattice", "E8", "--genus", "1",
        "--max-trace", "4")
    schema = load_schema("cache-stats.schema.json")
    code, doc = run(capsys, "cache-stats")
    assert code == 0
    assert doc["entries"] == 3 and doc["path"] == str(cache_path)
    jsonschema.validate(doc, schema)
    code, doc = run(capsys, "cache-stats", "--verify-cache",
                    "--fraction", "1.0")
    assert code == 0
    assert doc["entries"] == 3
    assert doc["mismatches"] == []
    jsonschema.validate(doc, schema)


def test_verify_cache_refuses_a_non_integral_key(capsys, tmp_path):
    # a key entry of 2.5 is not read as 2, whose count the record holds
    for u in ("[2.5]", '["2"]'):
        bad = CountCache(tmp_path / "float.jsonl")
        bad.put("E8", '{"g":1,"u":%s}' % u, 240)
        code, doc = run(capsys, "cache-stats", "--verify-cache",
                        "--fraction", "1", "--cache", bad.path)
        assert code == 2 and doc.keys() == {"error"}, u
        assert "is not an index" in doc["error"]
        (tmp_path / "float.jsonl").unlink()


def test_usage_error_is_machine_readable(capsys, tmp_path):
    code, doc = run(capsys, "eval", "--lattice", "E8", "--genus", "1",
                    "--tau", "garbage", "--max-trace", "4")
    assert code == 2
    assert doc.keys() == {"error"}
    # an entry is a real or an [re, im] pair of reals, nothing else
    for tau in ('[[[0.1, 1.2, 5]]]', '[[["0.1", 1.2]]]', '[[[true, 1.2]]]',
                '[[[0.1, 1%s]]]' % ("0" * 400), '[[NaN]]',
                '[[[0.1, 1e400]]]'):
        code, doc = run(capsys, "eval", "--lattice", "E8", "--genus", "1",
                        "--tau", tau, "--max-trace", "4")
        assert code == 2 and doc.keys() == {"error"}, tau
        assert "bad tau matrix" in doc["error"]
    code = main(["siegel-phi", "--input", str(tmp_path / "absent.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out.keys() == {"error"}
    code, doc = run(capsys, "theta-coeffs", "--lattice", "E8", "--genus", "1",
                    "--max-trace", "2",
                    "--cache", str(tmp_path / "absent" / "c.jsonl"))
    assert code == 2 and doc.keys() == {"error"}
    assert "FileNotFoundError" in doc["error"]
    code, doc = run(capsys, "cache-stats", "--verify-cache", "--fraction", "0",
                    "--cache", str(tmp_path / "c.jsonl"))
    assert code == 2 and doc.keys() == {"error"}
    assert "fraction must be in (0, 1]" in doc["error"]
    bad = CountCache(tmp_path / "bad.jsonl")
    bad.put("E8", "5", 240)                  # JSON, but not {"g", "u"}
    code, doc = run(capsys, "cache-stats", "--verify-cache",
                    "--fraction", "1", "--cache", bad.path)
    assert code == 2 and doc.keys() == {"error"}
    assert "is not an index" in doc["error"]
    for tolerance in ("nan", "-1", "inf"):
        code, doc = run(capsys, "eval", "--lattice", "E8", "--genus", "1",
                        "--max-trace", "4", "--tau", "1.2i",
                        "--tolerance", tolerance)
        assert code == 2 and doc.keys() == {"error"}, tolerance
        assert "tolerance must be finite and >= 0" in doc["error"]


@pytest.mark.parametrize("argv", [
    ["lattice-enum", "--lattice", "E8", "--max-norm", "2"],
    ["theta-coeffs", "--lattice", "E8", "--genus", "1", "--max-trace", "2"],
    ["siegel-phi", "--input", "expansion.json"],
    ["schottky-verify", "--genus", "1", "--max-trace", "2"],
    ["eval", "--lattice", "E8", "--genus", "1", "--tau", "i",
     "--max-trace", "4", "--budget", "4"],
    ["fay-check", "--input", "degeneration.json", "--max-trace", "8"],
    ["cache-stats"],
], ids=lambda argv: argv[0])
def test_every_subcommand_writes_one_stamped_line(capsys, tmp_path,
                                                  monkeypatch, argv):
    monkeypatch.setenv(ENV_CACHE_PATH, str(tmp_path / "c.jsonl"))
    monkeypatch.chdir(tmp_path)
    _, expansion = run(capsys, "theta-coeffs", "--lattice", "E8",
                       "--genus", "2", "--max-trace", "2")
    (tmp_path / "expansion.json").write_text(json.dumps(expansion))
    (tmp_path / "degeneration.json").write_text(json.dumps(
        {"genus": 1, "tau": [[[0.0, 1.3]]], "v_a": [0.1], "v_b": [0.2]}))
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert doc["command"] == argv[0]
    datetime.fromisoformat(doc["generated_at"])


def _error_line(capsys, argv) -> dict:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2 and out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert doc.keys() == {"error"}
    return doc


def test_unknown_subcommand_exits_2(capsys):
    doc = _error_line(capsys, ["no-such-command"])
    assert "invalid choice: 'no-such-command'" in doc["error"]


def test_rejected_options_exit_2_with_an_error_document(capsys):
    doc = _error_line(capsys, ["lattice-enum", "--lattice", "E8"])
    assert "--max-norm" in doc["error"]
    doc = _error_line(capsys, ["lattice-enum", "--lattice", "E8",
                               "--max-norm", "two"])
    assert "invalid int value" in doc["error"]
    doc = _error_line(capsys, ["lattice-enum", "--lattice", "E7",
                               "--max-norm", "2"])
    assert "unknown lattice id 'E7'" in doc["error"]


def test_help_exits_0_with_its_text(capsys):
    assert main(["lattice-enum", "--help"]) == 0
    assert "--max-norm" in capsys.readouterr().out


def test_reproducible_output_modulo_timestamp(capsys):
    _, a = run(capsys, "theta-coeffs", "--lattice", "E8", "--genus", "1",
               "--max-trace", "4")
    _, b = run(capsys, "theta-coeffs", "--lattice", "E8", "--genus", "1",
               "--max-trace", "4")
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b
