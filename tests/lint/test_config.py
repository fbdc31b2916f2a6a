"""Config loading: pyproject discovery, enable/disable, excludes."""

import textwrap

import pytest

from repro.lint import KNOWN_CODES, LintConfig, LintConfigError, lint_paths, load_config
from repro.lint.config import DEFAULT_PER_RULE_EXCLUDE, find_pyproject

VIOLATION = "import time\nt = time.time()\n"


def write_pyproject(tmp_path, body):
    path = tmp_path / "pyproject.toml"
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_defaults_when_no_pyproject(self):
        config = load_config(None)
        assert config.enable is None
        assert config.disable == frozenset()
        assert config.per_rule_exclude == dict(DEFAULT_PER_RULE_EXCLUDE)

    def test_missing_section_is_defaults(self, tmp_path):
        path = write_pyproject(tmp_path, "[project]\nname = 'x'\n")
        config = load_config(path, known_codes=KNOWN_CODES)
        assert config.root == tmp_path
        assert config.rule_enabled("REP001")

    def test_disable(self, tmp_path):
        path = write_pyproject(tmp_path, "[tool.repro-lint]\ndisable = ['REP003']\n")
        config = load_config(path, known_codes=KNOWN_CODES)
        assert not config.rule_enabled("REP003")
        assert config.rule_enabled("REP001")

    def test_enable_is_exclusive(self, tmp_path):
        path = write_pyproject(tmp_path, "[tool.repro-lint]\nenable = ['REP004']\n")
        config = load_config(path, known_codes=KNOWN_CODES)
        assert config.rule_enabled("REP004")
        assert not config.rule_enabled("REP001")

    def test_unknown_code_rejected(self, tmp_path):
        path = write_pyproject(tmp_path, "[tool.repro-lint]\ndisable = ['REP999']\n")
        with pytest.raises(LintConfigError, match="REP999"):
            load_config(path, known_codes=KNOWN_CODES)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_pyproject(tmp_path, "[tool.repro-lint]\nexculde = []\n")
        with pytest.raises(LintConfigError, match="exculde"):
            load_config(path, known_codes=KNOWN_CODES)

    def test_per_rule_exclude_extends_defaults(self, tmp_path):
        path = write_pyproject(
            tmp_path,
            """\
            [tool.repro-lint.per-rule-exclude]
            REP003 = ["legacy/*"]
            """,
        )
        config = load_config(path, known_codes=KNOWN_CODES)
        assert "legacy/*" in config.per_rule_exclude["REP003"]
        for pattern in DEFAULT_PER_RULE_EXCLUDE["REP003"]:
            assert pattern in config.per_rule_exclude["REP003"]

    def test_find_pyproject_walks_up(self, tmp_path):
        path = write_pyproject(tmp_path, "[tool.repro-lint]\n")
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert find_pyproject(nested) == path

    def test_find_pyproject_missing(self, tmp_path):
        assert find_pyproject(tmp_path) is None or find_pyproject(tmp_path).parent != tmp_path


class TestConfigApplied:
    def test_exclude_skips_file_entirely(self, tmp_path):
        (tmp_path / "skipme").mkdir()
        (tmp_path / "skipme" / "bad.py").write_text(VIOLATION, encoding="utf-8")
        (tmp_path / "kept.py").write_text(VIOLATION, encoding="utf-8")
        config = LintConfig(root=tmp_path, exclude=("skipme/*",))
        findings, scanned = lint_paths([tmp_path], config=config)
        assert scanned == 1
        assert [f.code for f in findings] == ["REP003"]
        assert findings[0].path.endswith("kept.py")

    def test_per_rule_exclude_only_masks_that_rule(self, tmp_path):
        source = "import time\ndef f(acc=[]):\n    return time.time()\n"
        (tmp_path / "mixed.py").write_text(source, encoding="utf-8")
        config = LintConfig(
            root=tmp_path,
            per_rule_exclude={"REP003": ("mixed.py",)},
        )
        findings, _ = lint_paths([tmp_path], config=config)
        assert [f.code for f in findings] == ["REP006"]

    def test_builtin_clock_exemption(self, tmp_path):
        # The default per-rule excludes sanction wall-clock reads in
        # repro/obs/clock.py (the single sanctioned entropy module);
        # everything else — including the runtime executor — must route
        # through it and gets flagged.
        obs = tmp_path / "repro" / "obs"
        obs.mkdir(parents=True)
        runtime = tmp_path / "repro" / "runtime"
        runtime.mkdir(parents=True)
        (obs / "clock.py").write_text(VIOLATION, encoding="utf-8")
        (runtime / "executor.py").write_text(VIOLATION, encoding="utf-8")
        findings, _ = lint_paths([tmp_path], config=LintConfig(root=tmp_path))
        assert [f.code for f in findings] == ["REP003"]
        assert findings[0].path.endswith("executor.py")

    def test_disabled_rule_not_run(self, tmp_path):
        (tmp_path / "bad.py").write_text(VIOLATION, encoding="utf-8")
        config = LintConfig(root=tmp_path, disable=frozenset({"REP003"}))
        findings, scanned = lint_paths([tmp_path], config=config)
        assert findings == []
        assert scanned == 1
