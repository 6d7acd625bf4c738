"""The package's public names: every name in ``multirees.__all__`` is
defined, so a name that leaves the package must leave the list too."""
import multirees


def test_every_public_name_resolves():
    missing = [name for name in multirees.__all__ if not hasattr(multirees, name)]
    assert missing == []
    assert len(set(multirees.__all__)) == len(multirees.__all__)
