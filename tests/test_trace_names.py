"""The benchmark's tracer (perfbench/tracing.py) times the program by
replacing `spotvar` attributes by name. A rename, or a call that binds one
of those names early, would leave its layer reading 0 without any error;
these tests catch both without installing the tracer."""

import ast
import importlib
from pathlib import Path

import pytest

import spotvar.cli as cli
from spotvar.cli import cli_entry

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
DATA = Path(__file__).parent / "data"


def _spans(name):
    """The literal dict assigned to `name` in the tracer's source."""
    if not TRACING.is_file():
        pytest.skip("perfbench/tracing.py is not in this checkout")
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


def test_every_traced_name_resolves():
    functions, methods = _spans("FUNCTION_SPANS"), _spans("METHOD_SPANS")
    assert functions and methods
    for mod, attr in functions:
        assert callable(getattr(importlib.import_module(f"spotvar.{mod}"), attr)), (mod, attr)
    for mod, cls_name, meth in methods:
        cls = getattr(importlib.import_module(f"spotvar.{mod}"), cls_name)
        assert meth in cls.__dict__, (mod, cls_name, meth)


def test_cli_looks_traced_names_up_at_call_time(tmp_path, monkeypatch):
    """Replacing a traced `spotvar.cli` global, as the tracer does, must
    reach the calls a full `report` run makes."""
    called = set()
    for mod, attr in _spans("FUNCTION_SPANS"):
        if mod != "cli":
            continue

        def counted(*args, _fn=getattr(cli, attr), _attr=attr, **kwargs):
            called.add(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, attr, counted)
    legs = DATA / "sample_legs"
    code = cli_entry([
        "report", "--spot", str(legs / "spot.csv"), "--num", str(legs / "num.csv"),
        "--den", str(legs / "den.csv"), "--replications", "5", "--path-length", "200",
        "--out-dir", str(tmp_path / "bundle"),
    ])
    assert code == 0
    assert called == {attr for mod, attr in _spans("FUNCTION_SPANS") if mod == "cli"}
