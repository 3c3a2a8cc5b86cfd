"""Source hygiene checks that need no Ray session."""

from __future__ import annotations

import pathlib
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _sources():
    for pattern in ("obsidian_parser_ray/**/*.py", "scripts/**/*.py"):
        yield from sorted(ROOT.glob(pattern))
    yield ROOT / "bench.py"
    yield ROOT / "__ray_entry__.py"


def test_sources_compile_without_warnings():
    """Every module compiles with syntax and deprecation warnings as
    errors, so an invalid escape sequence in a docstring cannot hide
    among the warnings a test run prints."""
    failures = []
    for path in _sources():
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            warnings.simplefilter("error", DeprecationWarning)
            try:
                compile(path.read_text(encoding="utf-8"), str(path), "exec")
            except (SyntaxError, SyntaxWarning, DeprecationWarning) as e:
                failures.append(f"{path.relative_to(ROOT)}: {e}")
    assert len(list(_sources())) > 10
    assert not failures, "\n".join(failures)
