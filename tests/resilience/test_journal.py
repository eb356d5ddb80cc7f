"""Self-checked lines: torn, flipped and garbage lines read as None.

Every result-store record and serve journal line is one
:func:`journal_line`; these pin the self-check they all rely on.
"""

import os

from repro.resilience.journal import (journal_line, parse_journal_line,
                                      truncate_torn_tail)

RECORD = {"version": 1, "uarch": "haswell", "text": "nop",
          "entry": {"throughput": 0.25}}


def test_round_trip():
    assert parse_journal_line(journal_line(RECORD)) == RECORD


class TestTornLines:
    def test_torn_final_line_is_dropped(self):
        line = journal_line(RECORD)
        for cut in range(len(line)):
            assert parse_journal_line(line[:cut]) is None

    def test_bit_flip_fails_the_self_check(self):
        line = journal_line(RECORD)
        flipped = line.replace('"throughput": 0.25',
                               '"throughput": 0.26')
        assert flipped != line
        assert parse_journal_line(flipped) is None

    def test_garbage_journal_starts_fresh(self):
        for garbage in ("\x00 not json at all {{{", "[]", "{}", "7",
                        '{"crc": "x", "rec": {}}',
                        '{"crc": 0, "rec": [1]}'):
            assert parse_journal_line(garbage) is None


class TestTornTailRepair:
    def _cut(self, tmp_path, data):
        path = tmp_path / "log"
        path.write_bytes(data)
        fd = os.open(path, os.O_RDWR)
        try:
            end = truncate_torn_tail(fd)
        finally:
            os.close(fd)
        assert path.read_bytes() == data[:end]
        return end

    def test_complete_lines_are_left_alone(self, tmp_path):
        line = (journal_line(RECORD) + "\n").encode()
        assert self._cut(tmp_path, b"") == 0
        assert self._cut(tmp_path, line * 3) == 3 * len(line)

    def test_an_unterminated_tail_is_cut_at_the_last_newline(
            self, tmp_path):
        line = (journal_line(RECORD) + "\n").encode()
        for cut in (1, len(line) // 2, len(line) - 1):
            assert self._cut(tmp_path, line * 2 + line[:cut]) \
                == 2 * len(line)
            assert self._cut(tmp_path, line[:cut]) == 0

    def test_a_tail_longer_than_one_read_is_cut_whole(self, tmp_path):
        line = (journal_line(RECORD) + "\n").encode()
        assert self._cut(tmp_path, line + b"x" * 10000) == len(line)
        assert self._cut(tmp_path, b"x" * 10000) == 0
