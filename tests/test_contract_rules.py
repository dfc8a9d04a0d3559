"""Each rule of the process-contract table, made to fire on a hand-made run.

process_contract._row_failures judges a row's report, [exit code, stdout,
stderr, modules added], and the files in the row's directory.  Here each
report is written by hand and each output is a copy of the row's golden, as
the row's run writes it, then changed; nothing is forked.  Each test breaks
one rule and expects that failure alone, and a change within the rule passes.
"""

import json
import math

import pytest

from process_contract import GOLDEN, ROWS, _content, _row_failures


def _run(tmp_path, args):
    """Row ``args``'s number, and the output that a run keeping the row writes: a copy of
    its golden, beside the manifest (None for a row that writes no file)."""
    i = next(i for i, row in enumerate(ROWS) if row.args == args)
    directory = tmp_path / str(i)
    directory.mkdir()
    golden = ROWS[i].golden
    if ROWS[i].code or not golden or golden.endswith(".txt"):
        return i, None
    output, name = directory / args[args.index("--output") + 1], golden.removesuffix(".gz")
    output.write_bytes(_content(GOLDEN / golden))
    manifest = (GOLDEN / f"{name}.manifest.json").read_text()
    manifest = manifest.replace(f'"output": {json.dumps(name)}',
                                f'"output": {json.dumps(output.name)}')
    (directory / f"{output.name}.manifest.json").write_text(manifest)
    return i, output


def _failures(tmp_path, i, code=None, stdout=None, stderr="", added=None):
    """Row i's failures on a report that keeps the row, but for what is given."""
    row = ROWS[i]
    if stdout is None:
        stdout = (GOLDEN / row.golden).read_text() if str(row.golden).endswith(".txt") else ""
    if added is None:
        added = [f"mimolab.{module}" for module in row.modules]
    return _row_failures(tmp_path, i, [row.code if code is None else code, stdout, stderr, added])


def _edit(output, old, new):
    text = output.read_text()
    assert text.count(old) == 1
    output.write_text(text.replace(old, new))


_NAN_REJECT = "invalid configuration: freq_ghz: expected a finite number, got 'nan'\n"


def test_a_wrong_exit_code_fails(tmp_path):
    i, _ = _run(tmp_path, ["fresnel", "--freq-ghz", "nan"])
    assert _failures(tmp_path, i, code=0) == ["exit 0, expected 3: "]


def test_a_nonzero_exit_that_writes_a_file_fails(tmp_path):
    i, _ = _run(tmp_path, ["fresnel", "--freq-ghz", "nan"])
    (tmp_path / str(i) / "out.json").write_text("{}\n")
    assert _failures(tmp_path, i, stderr=_NAN_REJECT) == ["exit 3, yet it wrote ['out.json']"]


def test_a_nonzero_exit_that_prints_fails(tmp_path):
    i, _ = _run(tmp_path, ["fresnel", "--freq-ghz", "nan"])
    assert _failures(tmp_path, i, stdout="ok\n", stderr=_NAN_REJECT) == [
        "exit 3, yet it printed 'ok\\n'"]


@pytest.mark.parametrize("stderr, failed", [
    (_NAN_REJECT, False),
    ("invalid configuration: freq_ghz_x: unknown\n", True),  # names another field
    ("invalid configuration: d1: freq_ghz is nan\n", True),  # names it only in the text
    ("parse error: freq_ghz: nan\n", True),  # names it, but in another kind of error
    (_NAN_REJECT + "Traceback\n", True),  # two lines
    (_NAN_REJECT[:-1], True),  # no final newline
])
def test_a_reject_must_name_its_field_on_one_line(stderr, failed, tmp_path):
    i, _ = _run(tmp_path, ["fresnel", "--freq-ghz", "nan"])
    assert _failures(tmp_path, i, stderr=stderr) == (
        [f"stderr {stderr!r} is not one line naming freq_ghz"] if failed else [])


def test_a_reject_must_print_its_exact_stderr(tmp_path):
    i, _ = _run(tmp_path, ["fresnel", "--seed"])
    stderr = "parse error: flag --seed wants a value\n"
    assert _failures(tmp_path, i, stderr=stderr) == [
        f"stderr {stderr!r}, expected 'parse error: flag --seed needs a value\\n'"]


def test_stderr_on_exit_0_fails(tmp_path):
    i, _ = _run(tmp_path, ["list"])
    assert _failures(tmp_path, i, stderr="note\n") == ["exit 0, yet it wrote to stderr: note\n"]


def test_stdout_other_than_its_txt_golden_fails(tmp_path):
    i, _ = _run(tmp_path, ["--help"])
    assert _failures(tmp_path, i, stdout="usage\n") == ["stdout is not usage.txt"]


@pytest.mark.parametrize("loaded", [["cli", "propagation"], []], ids=["extra", "missing"])
def test_other_mimolab_modules_fail(loaded, tmp_path):
    i, _ = _run(tmp_path, ["list"])
    assert _failures(tmp_path, i, added=[f"mimolab.{module}" for module in loaded]) == [
        f"loaded the mimolab modules {loaded}, not ['cli']"]


@pytest.mark.parametrize("module, failed", [
    ("json", True),
    ("importlib.resources._common", True),  # a submodule of an avoided package
    ("importlib", False),  # the parent of one
    ("jsonx", False),  # a name that only starts with one
])
def test_an_avoided_module_or_its_submodule_fails(module, failed, tmp_path):
    i, _ = _run(tmp_path, ["list"])
    assert _failures(tmp_path, i, added=["mimolab.cli", module]) == (
        [f"loaded ['{module}']"] if failed else [])


def test_a_missing_output_fails(tmp_path):
    i, output = _run(tmp_path, ["fresnel", "--output", "fresnel.json"])
    output.unlink()
    assert _failures(tmp_path, i) == ["wrote no fresnel.json"]


@pytest.mark.parametrize("rel, failed", [(3e-12, True), (3e-13, False)])
def test_a_json_float_agrees_to_rel_1e_12(rel, failed, tmp_path):
    i, output = _run(tmp_path, ["fresnel", "--output", "fresnel.json"])
    radius = 0.4441079601438798 * (1 + rel)
    _edit(output, "0.4441079601438798", repr(radius))
    assert _failures(tmp_path, i) == (
        [f"fresnel.json.radius_m: {radius!r}, golden 0.4441079601438798"] if failed else [])


@pytest.mark.parametrize("rel, failed", [(3e-12, True), (3e-13, False)])
def test_a_csv_value_agrees_to_rel_1e_12(rel, failed, tmp_path):
    i, output = _run(tmp_path, ["--config", "fig4_32x32", "--output", "fig4_32x32.csv"])
    efficiency = 0.7664545269878421 * (1 + rel)
    _edit(output, ",0.7664545269878421\n", f",{efficiency!r}\n")
    assert _failures(tmp_path, i) == (
        [f"fig4_32x32.csv line 2 efficiency: {efficiency!r}, golden 0.7664545269878421"]
        if failed else [])


def test_any_change_in_an_exact_csv_column_fails(tmp_path):
    i, output = _run(tmp_path, ["--config", "fig4_32x32", "--output", "fig4_32x32.csv"])
    frequency = math.nextafter(59e9, math.inf)  # rel 1.3e-16
    _edit(output, "\n59000000000.0,", f"\n{frequency!r},")
    assert _failures(tmp_path, i) == [
        f"fig4_32x32.csv line 2 frequency_hz: {frequency!r}, golden 59000000000.0"]


def test_one_ulp_in_a_pinned_golden_fails(tmp_path):
    i, output = _run(tmp_path, ["hardening", "--output", "out.json"])
    _edit(output, "0.10006995372329743", repr(math.nextafter(0.10006995372329743, 1.0)))
    assert _failures(tmp_path, i) == ["out.json is not byte for byte hardening.json"]


@pytest.mark.parametrize("output_bytes", ["equal", "within rel 1e-12"])
def test_manifest_drift_fails(output_bytes, tmp_path):
    i, output = _run(tmp_path, ["fresnel", "--output", "fresnel.json"])
    if output_bytes != "equal":
        _edit(output, "0.4441079601438798", repr(0.4441079601438798 * (1 + 3e-13)))
    manifest = output.with_name("fresnel.json.manifest.json")
    _edit(manifest, '"seed": 42', '"seed": 43')
    assert _failures(tmp_path, i) == [
        "fresnel.json.manifest.json is not byte for byte fresnel.json.manifest.json"
        if output_bytes == "equal" else "fresnel.json.manifest.json.seed: 43, golden 42"]


def test_a_manifest_that_does_not_echo_its_output_fails(tmp_path):
    i, output = _run(tmp_path, ["--config", "mobility_bound", "--output", "out.json"])
    _edit(output.with_name("out.json.manifest.json"), '"output": "out.json"',
          '"output": "mobility_bound.json"')
    assert _failures(tmp_path, i) == ["out.json.manifest.json does not echo the output 'out.json'"]
