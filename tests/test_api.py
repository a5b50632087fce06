"""The public API is what README and the demos use: every name in
``graphon_cpd.__all__`` must appear in one of them."""

import pathlib
import re

import pytest

import graphon_cpd

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = "\n".join(
    p.read_text(encoding="utf-8")
    for p in [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
)


@pytest.mark.parametrize("name", graphon_cpd.__all__)
def test_public_name_is_documented(name):
    assert re.search(rf"\b{re.escape(name)}\b", DOCS), (
        f"{name} is exported but neither README.md nor demos/ uses it"
    )
