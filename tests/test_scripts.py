import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_run(tmp_path, capsys):
    out = tmp_path / "results"
    assert _load("run_case_study").run(str(out)) == 0
    for name in ("fit.json", "comparison.csv", "efficiency.csv", "front_all.svg"):
        assert (out / name).is_file(), name
    assert _load("ga_seed_study").main(2) == 0
    assert "spread over 2 seeds" in capsys.readouterr().out


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["J"].shape == (2, 3) and namespace["H"].shape == (2, 3, 3)
    assert "w=0" in capsys.readouterr().out
