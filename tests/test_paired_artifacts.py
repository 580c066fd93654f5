"""``tools/paired_artifacts.py compare`` on hand-made run directories."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired_artifacts.py"
spec = importlib.util.spec_from_file_location("paired_artifacts", TOOL)
paired_artifacts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_artifacts)

MANIFEST = {"command": "pipeline", "config": {"seed": 0, "seeds": 1, "no_structure": False},
            "seed": 0, "out": "pipeline", "artifacts": ["pipeline.json"], "version": "0.1.0",
            "duration_s": 0.5}


def compare(tmp_path, edit=None):
    a, b = tmp_path / "a", tmp_path / "b"
    (a / "pipeline").mkdir(parents=True)
    (a / "pipeline" / "pipeline.json").write_text('{"c_raw": 0.6}\n')
    (a / "pipeline" / "manifest.json").write_text(json.dumps(MANIFEST))
    (a / "exit_codes.json").write_text('{"pipeline": 0}\n')
    shutil.copytree(a, b)
    if edit:
        manifest = json.loads(json.dumps(MANIFEST))
        edit(b, manifest)
        (b / "pipeline" / "manifest.json").write_text(json.dumps(manifest))
    return paired_artifacts.main(["compare", str(a), str(b)])


def test_identical_and_duration_or_out_differences_pass(tmp_path, capsys):
    def edit(root, manifest):
        manifest.update(duration_s=9.0, out="/elsewhere/pipeline")

    assert compare(tmp_path / "same") == 0
    assert compare(tmp_path / "timing", edit) == 0
    assert "3 paired files; 0 difference(s)" in capsys.readouterr().out


@pytest.mark.parametrize("edit,what", [
    (lambda root, m: (root / "pipeline" / "pipeline.json").write_text('{"c_raw": 0.7}\n'),
     "pipeline/pipeline.json: bytes differ"),
    (lambda root, m: (root / "exit_codes.json").unlink(), "exit_codes.json: only in"),
    (lambda root, m: (root / "pipeline" / "extra.csv").write_text("x\n"),
     "pipeline/extra.csv: only in"),
    (lambda root, m: m["config"].pop("no_structure"),
     "config key 'no_structure' only in the first"),
    (lambda root, m: m["config"].update(identity_refinement=True),
     "config key 'identity_refinement' only in the second"),
    (lambda root, m: m["config"].update(seeds=2), "config seeds 1 -> 2"),
    (lambda root, m: m.update(artifacts=[]), "artifacts ['pipeline.json'] -> []"),
], ids=["bytes", "missing", "extra", "key-removed", "key-added", "config-value", "field"])
def test_a_difference_exits_1(tmp_path, capsys, edit, what):
    assert compare(tmp_path, edit) == 1
    out = capsys.readouterr().out
    assert what in out and "1 difference(s)" in out
