"""RandomTextWriter (paper §V-G, Figure 6(a)).

"The application launches a fixed number of mappers, each of which
generates a huge sequence of random sentences formed from a list of
predefined words.  The reduce phase is missing altogether: the output
of each of the mappers is stored as a separate file."

The access pattern is what matters: concurrent, massively parallel
writes, each mapper to its own file.

The stream contract: a mapper's text is :func:`random_sentence` on
``derive_rng(seed, mapper)`` until the byte target, and the mapper
makes that text in bulk.  For a span below 2**32,
``Generator.integers`` maps one ``next_uint32`` word ``x`` to
``low + (x * span >> 32)`` and draws again only when
``(x * span) mod 2**32 < 2**32 mod span`` (Lemire's rule), so the
mapper draws raw words in chunks and decodes every sentence length and
word index at once.  A chunk holding a word either span would reject
(about one in 10**8) sends the whole mapper back to the plain
:func:`random_sentence` loop.  ``setup.py`` leaves numpy unpinned, so
``tests/mapreduce/test_apps.py`` checks the bulk text against the loop.
numpy loads at a mapper's first draw, not when this module loads: a
process that only builds the job, or runs grep, never imports it.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from repro.mapreduce.job import Emitter, JobConf
from repro.util.bytesize import parse_size
from repro.util.rng import derive_rng

if TYPE_CHECKING:
    import numpy as np

__all__ = ["WORDS", "random_sentence", "random_text_job"]

#: The predefined vocabulary (Hadoop's RandomTextWriter ships a fixed
#: word list; any fixed list reproduces the workload shape).
WORDS = (
    "diurnalness habitudinal spermaphyte percent dolorous diffusible "
    "inexistency cubby overclement cervisial amatorially beadroll "
    "stormy airship pleasurehood chorograph nonrepetition crystallize "
    "unafraid precostal bromate pendular stereotypical squdge "
    "disfavour graphics kilocycle blurredness discipular unmarred "
    "weariful unlapsing sportswoman salt abdominous configuration "
    "undershrub workmanship blaze causticity rebellion momentous "
    "hexahedral muddlehead storage throughput concurrency versioning "
    "snapshot provider metadata segment balanced scatter append"
).split()


def random_sentence(rng, min_words: int = 10, max_words: int = 20) -> str:
    """One random sentence from the predefined vocabulary."""
    count = int(rng.integers(min_words, max_words + 1))
    picks = rng.integers(0, len(WORDS), size=count)
    return " ".join(WORDS[i] for i in picks)


@functools.cache
def _word_array() -> np.ndarray:
    """:data:`WORDS` as an object array, for decoding picks in bulk."""
    import numpy as np

    return np.array(WORDS, dtype=object)


def _lemire(raw: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw over raw words: the values, the rejections."""
    import numpy as np

    product = raw * np.uint64(span)
    return product >> np.uint64(32), product.astype(np.uint32) < (1 << 32) % span


def _bulk_sentences(rng, target: int) -> list[str] | None:
    """``random_sentence(rng)`` until *target* bytes, decoded from chunked
    raw draws; None if numpy would have rejected a drawn word."""
    import numpy as np

    sentences, produced = [], 0
    raw = np.empty(0, dtype=np.uint64)  # drawn, not yet cut into sentences
    while produced < target:
        # About 10 bytes of text a raw word; 21 words end one sentence.
        size = (target - produced) // 10 + 21
        fresh = rng.integers(0, 1 << 32, size=size, dtype=np.uint32)
        raw = np.concatenate((raw, fresh.astype(np.uint64)))
        lengths, short = _lemire(raw, 11)  # random_sentence's 10..20 words
        picks, rejected = _lemire(raw, len(WORDS))
        if short.any() or rejected.any():
            return None
        lengths, words = (lengths + 10).tolist(), _word_array()[picks].tolist()
        position = 0
        while produced < target and position < len(words):
            stop = position + 1 + lengths[position]
            if stop > len(words):
                break
            sentences.append(" ".join(words[position + 1 : stop]))
            produced += len(sentences[-1]) + 1  # newline
            position = stop
        raw = raw[position:]
    return sentences


def random_text_job(
    output_dir: str,
    num_mappers: int,
    bytes_per_mapper: int | str,
    seed: int = 0,
) -> JobConf:
    """Build the RandomTextWriter job.

    Each mapper emits random sentences until it has produced
    ``bytes_per_mapper`` of text.  Deterministic per ``(seed, mapper)``.
    """
    target = parse_size(bytes_per_mapper)
    if num_mappers < 1:
        raise ValueError("num_mappers must be >= 1")
    if target < 1:
        raise ValueError("bytes_per_mapper must be >= 1")

    def mapper(key, _value: str, emit: Emitter) -> None:
        sentences = _bulk_sentences(derive_rng(seed, int(key)), target)
        if sentences is None:  # numpy would redraw a word: take the plain path
            rng, sentences, produced = derive_rng(seed, int(key)), [], 0
            while produced < target:
                sentences.append(random_sentence(rng))
                produced += len(sentences[-1]) + 1  # newline
        for sentence in sentences:
            emit(None, sentence)

    return JobConf(
        name="random-text-writer",
        output_dir=output_dir,
        mapper=mapper,
        synthetic_maps=num_mappers,
        reducer=None,
    )
