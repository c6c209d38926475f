"""Test-session setup shared by every test module."""

import warnings

# On a failing property the hypothesis plugin imports its private patching
# module, which imports libcst; that import raises a DeprecationWarning from
# mypy_extensions, an error under pyproject.toml's filterwarnings, and the run
# ends in INTERNALERROR instead of showing the falsifying example.  Import it
# once here with that one warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # a private module: absent from other hypothesis versions
        pass
