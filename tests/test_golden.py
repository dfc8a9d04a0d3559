"""Every file of tests/golden/, as scripts/goldens.py writes it, against the checked-in file.

The rows of the process-contract table (scripts/process_contract.py) are the
one table of the mimolab goldens, and its golden_failures() the one rule that
compares a written file and its manifest with a golden; test_process_contract
applies it to every row's output.  Tier-1 runs the table once, forked, in the
session fixture ``contract_run``.  Here goldens.collect() writes the goldens
from that run, as goldens.py does but with the .csv.gz goldens uncompressed,
and runs the two reports in process: it must write exactly the file names of
tests/golden/, each mimolab golden must pass golden_failures(), and each
report must match byte for byte.  The listing, its --list alias and the usage
text are also run in process here, through pytest's capture.  A change that
moves a value past the rule regenerates the goldens with scripts/goldens.py
and declares the numerics change in CHANGES.md.
"""

import pytest

from mimolab.cli import BUNDLED_CONFIGS, main

import goldens
from process_contract import GOLDEN, ROWS, RULES, golden_failures


@pytest.fixture(scope="module")
def written(contract_run, tmp_path_factory):
    directory = tmp_path_factory.mktemp("goldens")
    contract_dir, _, reports = contract_run
    goldens.collect(contract_dir, reports, directory)
    return directory


def test_writer_writes_exactly_the_golden_files(written):
    # no golden is orphaned and none is missing
    assert sorted(p.name for p in written.iterdir()) == sorted(p.name for p in GOLDEN.iterdir())


def test_every_bundled_config_has_a_golden():
    # each bundled config has a row that runs it to exit 0 and names the golden
    # that pins its output
    configs = {row.args[row.args.index("--config") + 1] for row in ROWS
               if row.code == 0 and row.golden and "--config" in row.args}
    assert set(BUNDLED_CONFIGS) <= configs


@pytest.mark.parametrize("name", [*RULES, *goldens.REPORTS])
def test_written_file_matches_golden(name, written):
    if name in goldens.REPORTS:
        assert (written / name).read_bytes() == (GOLDEN / name).read_bytes()
    else:
        assert golden_failures(written, name, name) == []


# the listing, the usage text, and the --list alias of the listing, in process
@pytest.mark.parametrize(
    "name, argv", [("list", ["list"]), ("usage", []), ("list", ["--list"])]
)
def test_listing_and_usage_match_golden(name, argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.txt").read_text()
    assert captured.err == ""
