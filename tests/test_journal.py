"""Tests for the campaign journal: the event log behind --resume."""

import json

from repro.runner import CampaignJournal, campaign_fingerprint, list_journals
from repro.runner.journal import JOURNAL_SCHEMA


KEY_A = "aa" + "0" * 38
KEY_B = "bb" + "0" * 38


class TestCampaignFingerprint:
    def test_stable_and_distinct(self):
        fp = campaign_fingerprint("fig2", "small", 1)
        assert fp == campaign_fingerprint("fig2", "small", 1)
        assert fp != campaign_fingerprint("fig2", "small", 2)
        assert fp != campaign_fingerprint("fig2", "full", 1)
        assert fp != campaign_fingerprint("fig3", "small", 1)
        assert len(fp) == 16
        int(fp, 16)


class TestCampaignJournal:
    def test_round_trip_with_meta_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, meta={"experiment": "fig2"}) as journal:
            journal.done(KEY_A)
            journal.quarantined(KEY_B, "boom", 3)
        with CampaignJournal(path) as loaded:
            assert loaded.meta == {"experiment": "fig2"}
            assert loaded.status(KEY_A) == "done"
            assert loaded.status(KEY_B) == "quarantined"
            assert loaded.entries[KEY_B]["error"] == "boom"
            assert loaded.entries[KEY_B]["attempts"] == 3
            assert loaded.counts() == {"done": 1, "retried": 0,
                                       "quarantined": 1}
            assert len(loaded) == 2

    def test_last_status_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.retried(KEY_A, "transient", 1)
            journal.done(KEY_A, attempts=2)
        with CampaignJournal(path) as loaded:
            assert loaded.status(KEY_A) == "done"
            assert loaded.counts()["retried"] == 0

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.done(KEY_A)
        # simulate a writer killed mid-append: a partial trailing line
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"seq": 1, "event": "done", "key": "' + KEY_B + '", "at')
        with CampaignJournal(path) as loaded:
            assert loaded.status(KEY_A) == "done"
            assert loaded.status(KEY_B) is None
        # and the journal stays appendable afterwards
        with CampaignJournal(path) as journal:
            journal.done(KEY_B)
        with CampaignJournal(path) as loaded:
            assert loaded.status(KEY_B) == "done"

    def test_done_is_idempotent_on_disk(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            for _ in range(5):
                journal.done(KEY_A)
        with CampaignJournal(path) as journal:
            journal.done(KEY_A, cached=True)  # a cache hit on resume
        lines = [l for l in path.read_text().splitlines() if l]
        assert len(lines) == 2  # the header, one outcome line

    def test_status_of_unknown_key_is_none(self, tmp_path):
        with CampaignJournal(tmp_path / "j.jsonl") as journal:
            assert journal.status(KEY_A) is None

    def test_for_campaign_names_by_fingerprint(self, tmp_path):
        journal = CampaignJournal.for_campaign(tmp_path, "fig2", "small", 1)
        try:
            fp = campaign_fingerprint("fig2", "small", 1)
            assert journal.path.name == f"fig2-{fp}.jsonl"
            assert journal.path.parent == tmp_path / "ledger"
            assert journal.meta == {"experiment": "fig2", "scale": "small",
                                    "seed": 1}
        finally:
            journal.close()

    def test_for_campaign_resumes_then_fresh_discards(self, tmp_path):
        with CampaignJournal.for_campaign(tmp_path, "fig2", "small", 1) as j:
            j.done(KEY_A)
        with CampaignJournal.for_campaign(tmp_path, "fig2", "small", 1) as j:
            assert j.status(KEY_A) == "done"  # resumed
        with CampaignJournal.for_campaign(tmp_path, "fig2", "small", 1,
                                          fresh=True) as j:
            assert j.status(KEY_A) is None    # discarded
            assert j.meta["experiment"] == "fig2"  # header rewritten

    def test_meta_header_is_first_line(self, tmp_path):
        with CampaignJournal.for_campaign(tmp_path, "fig2", "small", 1) as j:
            j.done(KEY_A)
        first = json.loads(j.path.read_text().splitlines()[0])
        assert first == {"schema": JOURNAL_SCHEMA,
                         "meta": {"experiment": "fig2", "scale": "small",
                                  "seed": 1}}


class TestListJournals:
    def test_empty_root_lists_nothing(self, tmp_path):
        assert list_journals(tmp_path) == []
        assert list_journals(tmp_path / "missing") == []

    def test_summaries_are_sorted_and_counted(self, tmp_path):
        with CampaignJournal.for_campaign(tmp_path, "fig3", "small", 0) as j:
            j.done(KEY_A)
            j.done(KEY_B)
        with CampaignJournal.for_campaign(tmp_path, "fig2", "small", 1) as j:
            j.done(KEY_A)
            j.quarantined(KEY_B, "boom", 3)
        summaries = list_journals(tmp_path)
        assert [s["experiment"] for s in summaries] == ["fig2", "fig3"]
        fig2, fig3 = summaries
        assert fig2["done"] == 1
        assert fig2["quarantined"] == 1
        assert fig2["seed"] == 1
        assert fig3["done"] == 2
        assert fig3["units"] == 2
