import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
