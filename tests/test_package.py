"""The package's public surface."""

import re
from pathlib import Path

import xmal
from xmal.data import DATASET_VERSION, EMBEDDING_VERSION
from xmal.trainer import CHECKPOINT_VERSION


def test_every_export_resolves():
    assert [name for name in xmal.__all__ if not hasattr(xmal, name)] == []
    assert len(set(xmal.__all__)) == len(xmal.__all__)


def test_readme_file_format_rows_state_the_current_versions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for magic, version in (
        ("XMAL", DATASET_VERSION), ("XEMB", EMBEDDING_VERSION), ("XCKP", CHECKPOINT_VERSION)
    ):
        rows = re.findall(rf"^\| [^|]+ \| `{magic}` \| version (\d+):", readme, re.MULTILINE)
        assert rows == [str(version)], (magic, rows)
