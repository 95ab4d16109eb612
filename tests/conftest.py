import pytest

from facetcx import build_complex, samples


@pytest.fixture(scope="session")
def bowtie():
    """Shaded bowtie: filled triangle abc plus edges cd, ce, de."""
    return samples.load("shaded_bowtie")


@pytest.fixture(scope="session")
def tailed():
    """Filled triangle a'b'c' with a tail edge c'd'."""
    return samples.load("tailed_triangle")


@pytest.fixture(scope="session")
def deep_path():
    """A path of 1 500 vertices, labelled in path order: far deeper than
    any default recursion limit of the supported Pythons (3.10-3.13)."""
    return build_complex([(f"v{i:04d}", f"v{i + 1:04d}") for i in range(1499)])


@pytest.fixture()
def write_scx(tmp_path):
    """Write .scx text to a temp file and return its path as str."""

    def _write(text: str, name: str = "c.scx") -> str:
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return _write
