"""Journal-driven scheduling tests: LPT ordering and its fallback."""

import os

from repro.experiments.runner import EXIT_OK, main
from repro.runtime import JOURNAL_NAME, RunJournal, historical_wall_times, longest_first


class TestLongestFirst:
    def test_orders_by_descending_history(self):
        history = {"a": 1.0, "b": 5.0, "c": 3.0}
        assert longest_first(["a", "b", "c"], history) == ["b", "c", "a"]

    def test_no_history_preserves_input_order_exactly(self):
        ids = ["table1", "figure1", "figure2"]
        assert longest_first(ids, {}) == ids
        assert longest_first(ids, None) == ids

    def test_unknown_tasks_go_first_in_input_order(self):
        # An unknown task may be the longest: submit it early.
        history = {"a": 1.0, "b": 5.0}
        assert longest_first(["a", "new1", "b", "new2"], history) == ["new1", "new2", "b", "a"]

    def test_deterministic_and_pure(self):
        ids = ["x", "y", "z"]
        history = {"x": 2.0, "y": 2.0, "z": 1.0}
        first = longest_first(ids, history)
        assert first == longest_first(ids, history)
        # Equal wall times keep input order (stable sort).
        assert first == ["x", "y", "z"]

    def test_does_not_mutate_input(self):
        ids = ["a", "b"]
        longest_first(ids, {"a": 1.0, "b": 2.0})
        assert ids == ["a", "b"]


class TestHistoricalWallTimes:
    def test_missing_journal_yields_empty(self, tmp_path):
        assert historical_wall_times(tmp_path) == {}

    def test_harvests_ok_entries_only(self, tmp_path):
        journal = RunJournal(tmp_path / JOURNAL_NAME)
        journal.meta(seed=0)
        journal.record("fast", status="ok", wall_s=0.5)
        journal.record("slow", status="ok", wall_s=9.0)
        journal.record("broken", status="failed", wall_s=3.0)
        journal.record("instant", status="ok", wall_s=0.0)
        history = historical_wall_times(tmp_path)
        assert history == {"fast": 0.5, "slow": 9.0}

    def test_latest_record_wins(self, tmp_path):
        journal = RunJournal(tmp_path / JOURNAL_NAME)
        journal.record("x", status="failed", wall_s=1.0)
        journal.record("x", status="ok", wall_s=2.0)
        assert historical_wall_times(tmp_path) == {"x": 2.0}

    def test_feeds_longest_first(self, tmp_path):
        journal = RunJournal(tmp_path / JOURNAL_NAME)
        journal.record("table1", status="ok", wall_s=1.0)
        journal.record("stability", status="ok", wall_s=30.0)
        history = historical_wall_times(tmp_path)
        assert longest_first(["table1", "figure9", "stability"], history) == [
            "figure9",
            "stability",
            "table1",
        ]

    def test_cache_hit_falls_back_to_compute_s(self, tmp_path):
        journal = RunJournal(tmp_path / JOURNAL_NAME)
        journal.record("warm", status="ok", wall_s=0.0, compute_s=4.5)
        journal.record("bogus", status="ok", wall_s=0.0, compute_s="slow")
        assert historical_wall_times(tmp_path) == {"warm": 4.5}

    def test_history_survives_a_warm_run(self, tmp_path, capsys):
        # A warm run serves every task from the parent's cache check and
        # journals wall_s 0; the next cold run must still order by the
        # original compute times.
        ids = ["table1", "figure2"]
        out = str(tmp_path / "out")
        argv = [*ids, "--quick", "--out", out, "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == EXIT_OK
        cold = historical_wall_times(os.path.join(out, "latest"))
        assert set(cold) == set(ids)
        assert main(argv) == EXIT_OK
        assert "cached" in capsys.readouterr().out
        warm = historical_wall_times(os.path.join(out, "latest"))
        assert set(warm) == set(ids)
        assert all(wall > 0.0 for wall in warm.values())
