"""Byte identity of the CLI over the committed corpus (tests/cli_corpus.py).

The census (tests/census.py) replays the corpus cold and in order; this
replays it reversed in the pytest process, whose caches other tests have
filled, so an answer that depends on what the caches hold fails as well.
"""

import cli_corpus


def test_corpus_replays_reversed_in_process():
    expected = cli_corpus.load()
    assert len(expected) > 500
    moved = [" ".join(want["argv"]) for want in expected[::-1] if cli_corpus.run(want["argv"]) != want]
    assert not moved, f"{len(moved)} argvs differ from the corpus:\n" + "\n".join(moved)


def test_corpus_lists_exactly_the_corpus_argvs():
    # an argv added to EXTRA_ARGVS, or a benchmark argv that moved, is never
    # replayed until the file is regenerated; this needs no CLI run
    assert [line["argv"] for line in cli_corpus.load()] == cli_corpus.corpus_argvs()
