"""Configuration for the determinism linter.

Configuration lives in ``pyproject.toml`` under ``[tool.repro-lint]``::

    [tool.repro-lint]
    # enable = ["REP001", "REP004"]     # run only these rules
    disable = ["REP005"]                # never run these rules
    exclude = ["tests/lint/fixtures/*"] # paths no rule sees

    [tool.repro-lint.per-rule-exclude]
    REP003 = ["src/repro/experiments/runner.py"]

Patterns are :mod:`fnmatch` globs matched against the file's
POSIX-style path relative to the directory holding the config file
(``*`` crosses directory separators).  User ``per-rule-exclude``
entries extend the built-in defaults, which encode the two sanctioned
exemptions of the determinism contract: :mod:`repro.util.rng` is the
one place allowed to construct fresh-entropy generators (REP002), and
:mod:`repro.obs.clock` is the one place allowed to read the wall
clock and mint entropy-based ids (REP003) — everything else, including
the runtime executor and the trace writers, must route through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_PER_RULE_EXCLUDE",
    "LintConfig",
    "LintConfigError",
    "find_pyproject",
    "load_config",
]

#: Files exempt from specific rules by design; see the module docstring.
#: REP007 skips tests wholesale — tmp-dir fixtures have no torn-read
#: window worth the tempfile + os.replace ceremony.
DEFAULT_PER_RULE_EXCLUDE: Mapping[str, Tuple[str, ...]] = {
    "REP002": ("*/repro/util/rng.py",),
    "REP003": ("*/repro/obs/clock.py",),
    "REP007": ("tests/*",),
}


class LintConfigError(ValueError):
    """Raised for unreadable or invalid ``[tool.repro-lint]`` sections."""


@dataclass(frozen=True)
class LintConfig:
    """Effective linter configuration for one run."""

    root: Path = Path(".")
    enable: Optional[FrozenSet[str]] = None
    disable: FrozenSet[str] = frozenset()
    exclude: Tuple[str, ...] = ()
    per_rule_exclude: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_PER_RULE_EXCLUDE)
    )

    def _rel_posix(self, path: Path) -> str:
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return resolved.as_posix()

    @staticmethod
    def _matches(rel: str, pattern: str) -> bool:
        # Also try with a leading "/" so a ``*/pkg/mod.py`` pattern matches
        # ``pkg/mod.py`` sitting directly under the root.
        return fnmatch(rel, pattern) or fnmatch(f"/{rel}", pattern)

    def file_excluded(self, path: Path) -> bool:
        """True when no rule at all should see *path*."""
        rel = self._rel_posix(path)
        return any(self._matches(rel, pattern) for pattern in self.exclude)

    def rule_enabled(self, code: str) -> bool:
        if code in self.disable:
            return False
        return self.enable is None or code in self.enable

    def rule_applies(self, code: str, path: Path) -> bool:
        """True when rule *code* should run on *path*."""
        if not self.rule_enabled(code):
            return False
        rel = self._rel_posix(path)
        return not any(
            self._matches(rel, pattern) for pattern in self.per_rule_exclude.get(code, ())
        )


def find_pyproject(start: Path) -> Optional[Path]:
    """The nearest ``pyproject.toml`` at or above *start*, if any."""
    node = start.resolve()
    if node.is_file():
        node = node.parent
    for candidate in [node, *node.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _load_toml(path: Path) -> Dict[str, Any]:
    try:
        import tomllib as toml_reader  # Python >= 3.11
    except ImportError:  # pragma: no cover - exercised only on 3.10
        try:
            import tomli as toml_reader  # type: ignore[no-redef]
        except ImportError as exc:
            raise LintConfigError(
                f"cannot read {path}: no TOML parser available (need Python >= 3.11 or tomli)"
            ) from exc
    try:
        with open(path, "rb") as fh:
            return toml_reader.load(fh)
    except (OSError, ValueError) as exc:
        raise LintConfigError(f"cannot read {path}: {exc}") from exc


def _string_list(section: str, key: str, value: Any) -> Tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise LintConfigError(f"[{section}] {key} must be a list of strings, got {value!r}")
    return tuple(value)


def _check_codes(codes: Sequence[str], *, known_codes: Optional[FrozenSet[str]], where: str) -> None:
    if known_codes is None:
        return
    unknown = sorted(set(codes) - known_codes)
    if unknown:
        raise LintConfigError(f"{where} names unknown rule(s): {', '.join(unknown)}")


def load_config(
    pyproject: Optional[Path],
    *,
    known_codes: Optional[FrozenSet[str]] = None,
) -> LintConfig:
    """Build a :class:`LintConfig` from *pyproject* (``None`` = defaults).

    *known_codes* (normally the registered REPnnn codes) makes typos in
    the config a hard error instead of a silently dead setting.
    """
    if pyproject is None:
        return LintConfig()
    section = _load_toml(pyproject).get("tool", {}).get("repro-lint", {})
    if not isinstance(section, dict):
        raise LintConfigError("[tool.repro-lint] must be a table")

    enable: Optional[FrozenSet[str]] = None
    if "enable" in section:
        codes = _string_list("tool.repro-lint", "enable", section["enable"])
        _check_codes(codes, known_codes=known_codes, where="[tool.repro-lint] enable")
        enable = frozenset(codes)
    disable_codes = _string_list("tool.repro-lint", "disable", section.get("disable", []))
    _check_codes(disable_codes, known_codes=known_codes, where="[tool.repro-lint] disable")
    exclude = _string_list("tool.repro-lint", "exclude", section.get("exclude", []))

    per_rule: Dict[str, Tuple[str, ...]] = {
        code: tuple(patterns) for code, patterns in DEFAULT_PER_RULE_EXCLUDE.items()
    }
    raw_per_rule = section.get("per-rule-exclude", {})
    if not isinstance(raw_per_rule, dict):
        raise LintConfigError("[tool.repro-lint.per-rule-exclude] must be a table")
    for code, patterns in raw_per_rule.items():
        _check_codes([code], known_codes=known_codes, where="[tool.repro-lint.per-rule-exclude]")
        extra = _string_list("tool.repro-lint.per-rule-exclude", code, patterns)
        per_rule[code] = per_rule.get(code, ()) + extra

    unknown_keys = set(section) - {"enable", "disable", "exclude", "per-rule-exclude"}
    if unknown_keys:
        raise LintConfigError(
            f"[tool.repro-lint] has unknown key(s): {', '.join(sorted(unknown_keys))}"
        )

    return LintConfig(
        root=pyproject.parent,
        enable=enable,
        disable=frozenset(disable_codes),
        exclude=exclude,
        per_rule_exclude=per_rule,
    )
