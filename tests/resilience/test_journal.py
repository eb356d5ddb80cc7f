"""Self-checked lines: torn, flipped and garbage lines read as None.

Every result-store record and serve journal line is one
:func:`journal_line`; these pin the self-check they all rely on.
"""

from repro.resilience.journal import journal_line, parse_journal_line

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
