"""Every file of tests/golden/, as scripts/goldens.py writes it, against the checked-in file.

scripts/goldens.py's GOLDENS table names each golden and the run that writes
it; its writer runs the whole table once into a temporary directory.  A
golden pinned byte for byte (the Monte-Carlo outputs, the listing, the usage
text and the reports) must be written byte for byte.  Any other CSV must match
its header, its shape and its leading exact columns (the frequency grid, the
integer columns), and agree to a relative 1e-12 elsewhere; any other JSON must
match its keys and non-float values, and agree to a relative 1e-12 in its
floats.  A run's manifest matches the golden manifest the same way, and byte
for byte whenever the run's output is byte for byte its golden.  The
Monte-Carlo runs are also run under another --output name, and the listing
also through its --list alias; those outputs must be their goldens too.
A change that moves a value past that tolerance regenerates the goldens with
scripts/goldens.py and declares the numerics change in CHANGES.md.
"""

import gzip
import json
from pathlib import Path

import numpy as np
import pytest

from mimolab.cli import BUNDLED_CONFIGS, main

import goldens as writer

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDENS = writer.GOLDENS
# the mimolab argv, or the report script, that writes each golden
RUNS = {name: run for name, run, _, _ in GOLDENS}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    directory = tmp_path_factory.mktemp("goldens")
    writer.write(directory)
    return directory


def _content(path):
    """A file's bytes, decompressed when it is gzipped."""
    data = Path(path).read_bytes()
    return gzip.decompress(data) if str(path).endswith(".gz") else data


def _read_csv(text):
    header, *rows = text.strip().split("\n")
    return header, np.array([[float(x) for x in row.split(",")] for row in rows])


def _assert_csv_close(text, golden_text, exact_columns):
    """Same header and shape, given leading columns exact, the rest rel 1e-12."""
    header, values = _read_csv(text)
    golden_header, golden_values = _read_csv(golden_text)
    assert header == golden_header
    assert values.shape == golden_values.shape
    np.testing.assert_array_equal(values[:, :exact_columns], golden_values[:, :exact_columns])
    np.testing.assert_allclose(
        values[:, exact_columns:], golden_values[:, exact_columns:], rtol=1e-12, atol=0
    )


def _assert_json_close(actual, golden, where="$"):
    """Same structure and non-float values; floats equal to a relative 1e-12."""
    assert type(actual) is type(golden), where
    if isinstance(golden, dict):
        assert list(actual) == list(golden), where
        for key in golden:
            _assert_json_close(actual[key], golden[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert len(actual) == len(golden), where
        for i, (a, g) in enumerate(zip(actual, golden)):
            _assert_json_close(a, g, f"{where}[{i}]")
    elif isinstance(golden, float):
        assert actual == pytest.approx(golden, rel=1e-12, abs=0), where
    else:
        assert actual == golden, where


def _assert_run_matches_golden(output, name):
    """A run's file ``output``, in the working directory, and its manifest against golden ``name``.

    The output compares as the golden's row says; the run of a .csv.gz golden
    may leave its CSV uncompressed.  The manifest echoes ``output`` where the
    golden manifest echoes the golden's own name.  Apart from that line it is
    byte for byte the golden manifest when the output is byte for byte its
    golden, and within rel 1e-12 otherwise.
    """
    _, _, exact_columns, pinned = next(row for row in GOLDENS if row[0] == name)
    actual, golden = _content(output), _content(GOLDEN / name)
    if pinned:
        assert actual == golden
    elif ".csv" in name:
        _assert_csv_close(actual.decode(), golden.decode(), exact_columns)
    else:
        _assert_json_close(json.loads(actual), json.loads(golden))
    if name.endswith(".txt"):
        return
    output, name = output.removesuffix(".gz"), name.removesuffix(".gz")
    manifest = Path(f"{output}.manifest.json").read_text()
    golden_manifest = (GOLDEN / f"{name}.manifest.json").read_text()
    echo = '\n  "output": {},\n'.format
    assert echo(json.dumps(output)) in manifest
    manifest = manifest.replace(echo(json.dumps(output)), echo(json.dumps(name)))
    if actual == golden:
        assert manifest == golden_manifest
    else:
        _assert_json_close(json.loads(manifest), json.loads(golden_manifest))


@pytest.mark.parametrize("name", RUNS)
def test_written_file_matches_golden(name, written, monkeypatch):
    monkeypatch.chdir(written)
    _assert_run_matches_golden(name, name)


# the Monte-Carlo runs under another --output name: the output and the
# manifest's values do not depend on the name the run is told to write
MONTECARLO_RUNS = [
    (name.removesuffix(".json"), run) for name, run, _, pinned in GOLDENS
    if pinned and name.endswith(".json")
]


@pytest.mark.parametrize("name, argv", MONTECARLO_RUNS)
def test_montecarlo_output_matches_golden(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--output", "out.json"]) == 0
    _assert_run_matches_golden("out.json", f"{name}.json")


# the listing, the usage text, and the --list alias of the listing
@pytest.mark.parametrize(
    "name, argv", [("list", RUNS["list.txt"]), ("usage", RUNS["usage.txt"]), ("list", ["--list"])]
)
def test_listing_and_usage_match_golden(name, argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.txt").read_text()
    assert captured.err == ""


def test_writer_writes_exactly_the_golden_files(written):
    # no golden is orphaned and none is missing
    assert sorted(p.name for p in written.iterdir()) == sorted(p.name for p in GOLDEN.iterdir())


def test_every_bundled_config_has_a_golden():
    configs = {run[1] for run in RUNS.values() if run[:1] == ["--config"]}
    assert set(BUNDLED_CONFIGS) <= configs
