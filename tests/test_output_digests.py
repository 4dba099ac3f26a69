import importlib.util
import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

_spec = importlib.util.spec_from_file_location(
    "output_digests", TOOLS / "output_digests.py")
output_digests = importlib.util.module_from_spec(_spec)
_bytecode = sys.dont_write_bytecode   # the tool turns bytecode writing off
_spec.loader.exec_module(output_digests)
sys.dont_write_bytecode = _bytecode

FACTS = {"python": "3.11.7", "numpy": "2.4.6",
         "openblas_config": "OpenBLAS 0.3.31 DYNAMIC_ARCH SkylakeX",
         "openblas_core": "SkylakeX"}


def test_same_platform_is_comparable():
    assert output_digests.platform_mismatch(FACTS, dict(FACTS)) == []


def test_other_kernel_is_named():
    here = {**FACTS, "openblas_core": "Haswell"}
    assert output_digests.platform_mismatch(FACTS, here) == [
        "openblas_core: manifest 'SkylakeX', here 'Haswell'"]


def test_missing_fact_is_a_mismatch():
    here = {k: v for k, v in FACTS.items() if k != "numpy"}
    assert output_digests.platform_mismatch(FACTS, here) == [
        "numpy: manifest '2.4.6', here None"]


def test_equal_digests_move_nothing():
    digests = {"a.csv": "01", "b.json": "02"}
    assert output_digests.moved_outputs(digests, dict(digests)) == []


def test_moved_new_and_gone_outputs_are_named_in_order():
    recorded = {"a.csv": "01", "b.json": "02", "c.csv": "03"}
    computed = {"a.csv": "01", "b.json": "ff", "d.csv": "04"}
    assert output_digests.moved_outputs(recorded, computed) == [
        "moved: b.json", "gone: c.csv", "new: d.csv"]


def test_committed_manifest_names_its_platform():
    manifest = json.loads((TOOLS / "output_digests.json").read_text())
    assert set(manifest) == {"platform", "digests"}
    assert set(manifest["platform"]) == set(FACTS)
    assert len(manifest["digests"]) == 61
    assert all(len(d) == 64 for d in manifest["digests"].values())


def check(tmp_path, monkeypatch, facts, digests):
    """``main(["--check"])`` against a manifest of FACTS and two digests,
    with ``facts`` and ``digests`` standing in for this platform's."""
    manifest = tmp_path / "output_digests.json"
    manifest.write_text(json.dumps(
        {"platform": FACTS, "digests": {"a.csv": "01", "b.json": "02"}}))
    monkeypatch.setattr(output_digests, "MANIFEST", manifest)
    monkeypatch.setattr(output_digests, "platform_facts", lambda: facts)
    monkeypatch.setattr(output_digests, "output_digests",
                        lambda seeds, work: digests)
    return output_digests.main(["--check"])


def test_check_passes_on_equal_digests(tmp_path, monkeypatch, capsys):
    assert check(tmp_path, monkeypatch, FACTS, {"a.csv": "01", "b.json": "02"}) == 0
    assert capsys.readouterr().out == "all 2 digests match the manifest\n"


def test_check_names_a_moved_digest(tmp_path, monkeypatch, capsys):
    assert check(tmp_path, monkeypatch, FACTS, {"a.csv": "01", "b.json": "ff"}) == 1
    assert capsys.readouterr().out == "moved: b.json\n"


def test_check_on_another_platform_computes_nothing(tmp_path, monkeypatch, capsys):
    def unreachable(seeds, work):
        raise AssertionError("digests computed for an incomparable manifest")

    here = {**FACTS, "openblas_core": "Haswell"}
    assert check(tmp_path, monkeypatch, here, None) == 2
    monkeypatch.setattr(output_digests, "output_digests", unreachable)
    assert output_digests.main(["--check"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("the manifest is not comparable: it was made on other "
                      "platform facts")
    assert out[1] == "openblas_core: manifest 'SkylakeX', here 'Haswell'"
