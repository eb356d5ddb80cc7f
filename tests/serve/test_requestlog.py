"""Request journal: CRC-self-checked lines, pending/completed truth.

The journal is both the crash-recovery source (``req`` without
``done`` replays) and the request-level dedup memo (``done`` records
answer identical requests without engine work), so the load-time
bookkeeping must stay honest under torn tails and dropped work.
"""

import os
import sys
import threading

from repro.resilience.journal import journal_line, parse_journal_line
from repro.serve.requestlog import (REQUEST_LOG_NAME, RequestJournal,
                                    read_done_records)

BODY = {"blocks": ["addq %rax, %rbx"], "uarch": "haswell", "seed": 0,
        "client": "t", "deadline_ms": 0.0}
RESULTS = [{"status": "ok", "throughput": 1.0}]


def _journal(tmp_path):
    return RequestJournal(str(tmp_path / REQUEST_LOG_NAME))


class TestRoundTrip:
    def test_fresh_journal_starts_empty(self, tmp_path):
        with _journal(tmp_path) as journal:
            assert journal.open() == {}
            assert journal.completed == {}
        # The begin record makes the file non-empty but adds nothing
        # to pending on reopen.
        with _journal(tmp_path) as journal:
            assert journal.open() == {}

    def test_req_without_done_is_pending_on_reload(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.open()
            journal.record_request("d1", BODY)
        with _journal(tmp_path) as journal:
            assert journal.open() == {"d1": BODY}
            assert journal.completed == {}

    def test_done_clears_pending_and_feeds_the_memo(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.open()
            journal.record_request("d1", BODY)
            journal.record_done("d1", RESULTS)
        with _journal(tmp_path) as journal:
            assert journal.open() == {}
            assert journal.completed == {"d1": RESULTS}
        assert read_done_records(
            str(tmp_path / REQUEST_LOG_NAME)) == [("d1", RESULTS)]

    def test_dropped_closes_out_without_memoizing(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.open()
            journal.record_request("d1", BODY)
            journal.record_dropped("d1", "deadline")
        with _journal(tmp_path) as journal:
            assert journal.open() == {}          # never replays
            assert journal.completed == {}        # never answers


class TestTornTail:
    def test_torn_final_line_is_dropped_not_fatal(self, tmp_path):
        path = str(tmp_path / REQUEST_LOG_NAME)
        with _journal(tmp_path) as journal:
            journal.open()
            journal.record_request("d1", BODY)
            journal.record_done("d1", RESULTS)
            journal.record_request("d2", BODY)
        # SIGKILL mid-append: truncate the last line partway through.
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-20])
        with _journal(tmp_path) as journal:
            pending = journal.open()
        assert journal.torn_records == 1
        assert pending == {}                      # d2's req was torn
        assert journal.completed == {"d1": RESULTS}

    def test_record_after_a_torn_tail_survives_the_next_restart(
            self, tmp_path):
        """Reopening cuts a torn last line off before the first append,
        so the next record is not glued onto it and lost."""
        path = str(tmp_path / REQUEST_LOG_NAME)
        with _journal(tmp_path) as journal:
            journal.open()
            journal.record_request("a", BODY)
        torn = journal_line({"kind": "req", "id": "b", "body": BODY})
        with open(path, "a") as fh:
            fh.write(torn[:len(torn) // 2])  # SIGKILL mid-append
        with _journal(tmp_path) as journal:
            assert journal.open() == {"a": BODY}
            assert journal.torn_records == 1
            journal.record_request("c", BODY)
        with _journal(tmp_path) as journal:
            assert journal.open() == {"a": BODY, "c": BODY}
            assert journal.torn_records == 0

    def test_garbage_line_is_dropped(self, tmp_path):
        path = str(tmp_path / REQUEST_LOG_NAME)
        with _journal(tmp_path) as journal:
            journal.open()
            journal.record_done("d1", RESULTS)
        with open(path, "a") as fh:
            fh.write("not a journal line\n")
        with _journal(tmp_path) as journal:
            journal.open()
        assert journal.torn_records == 1
        assert journal.completed == {"d1": RESULTS}


class TestLineFormat:
    def test_lines_reuse_the_run_journal_format(self, tmp_path):
        """Every line parses with the shared resilience parser."""
        path = str(tmp_path / REQUEST_LOG_NAME)
        with _journal(tmp_path) as journal:
            journal.open()
            journal.record_request("d1", BODY)
            journal.record_done("d1", RESULTS)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3  # begin, req, done
        records = [parse_journal_line(line) for line in lines]
        assert all(record is not None for record in records)
        assert [r["kind"] for r in records] == ["begin", "req", "done"]
        # And the round trip is byte-stable.
        for line, record in zip(lines, records):
            assert journal_line(record) == line

    def test_appends_are_durable(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.open()
            journal.record_request("d1", BODY)
            # Visible to an independent reader before close().
            with open(str(tmp_path / REQUEST_LOG_NAME)) as fh:
                raw = fh.read()
            assert '"req"' in raw
        assert os.path.getsize(str(tmp_path / REQUEST_LOG_NAME)) > 0


class TestConcurrentAppends:
    def test_threads_appending_at_once_leave_whole_lines(self, tmp_path):
        """The daemon appends ``req`` and ``done`` from many threads."""
        threads, pairs = 8, 200
        with _journal(tmp_path) as journal:
            journal.open()

            def append(worker: int) -> None:
                for i in range(pairs):
                    digest = f"w{worker}-{i}"
                    journal.record_request(digest, BODY)
                    journal.record_done(digest, RESULTS)

            workers = [threading.Thread(target=append, args=(w,))
                       for w in range(threads)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(worker.is_alive() for worker in workers)
        with _journal(tmp_path) as journal:
            assert journal.open() == {}
            assert journal.torn_records == 0
            assert len(journal.completed) == threads * pairs
            assert journal.pending == {}
