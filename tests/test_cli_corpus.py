"""Byte identity of the CLI over the committed corpus (tests/cli_corpus.py).

The corpus runs twice in one process, in order and then in reverse, so an
answer that depends on what the caches already hold fails as well.
"""

import cli_corpus


def test_corpus_replays_in_both_orders():
    expected = cli_corpus.load()
    assert len(expected) > 500
    moved = []
    for label, lines in (("in order", expected), ("reversed", expected[::-1])):
        for want in lines:
            got = cli_corpus.run(want["argv"])
            if got != want:
                moved.append(f"{label}: {' '.join(want['argv'])}")
    assert not moved, f"{len(moved)} argvs differ from the corpus:\n" + "\n".join(moved)


def test_corpus_lists_exactly_the_corpus_argvs():
    # an argv added to EXTRA_ARGVS, or a benchmark argv that moved, is never
    # replayed until the file is regenerated; this needs no CLI run
    assert [line["argv"] for line in cli_corpus.load()] == cli_corpus.corpus_argvs()
