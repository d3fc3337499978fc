"""Tests for the paper's applications (RandomTextWriter, grep)."""

import hashlib

import pytest

from repro.blob import LocalBlobStore, StoreConfig
from repro.bsfs import BSFSFileSystem
from repro.mapreduce import LocalJobRunner
from repro.mapreduce.apps import (
    WORDS,
    grep_job,
    random_sentence,
    random_text_job,
    wordcount_job,
)
from repro.util.rng import derive_rng

BS = 512


@pytest.fixture
def fs():
    return BSFSFileSystem(
        store=LocalBlobStore(config=StoreConfig(data_providers=6, metadata_providers=2, block_size=BS))
    )


class TestRandomSentence:
    def test_uses_vocabulary(self):
        rng = derive_rng(0, 1)
        for _ in range(20):
            words = random_sentence(rng).split()
            assert 10 <= len(words) <= 20
            assert all(w in WORDS for w in words)

    def test_deterministic(self):
        assert random_sentence(derive_rng(5, 0)) == random_sentence(derive_rng(5, 0))


class TestRandomTextWriter:
    def test_one_output_file_per_mapper(self, fs):
        job = random_text_job("/rtw", num_mappers=4, bytes_per_mapper=2000, seed=1)
        result = LocalJobRunner(fs).run(job)
        assert len(result.output_paths) == 4
        assert sorted(result.output_paths) == [
            f"/rtw/part-m-0000{i}" for i in range(4)
        ]

    def test_output_size_near_target(self, fs):
        target = 5000
        job = random_text_job("/rtw", num_mappers=2, bytes_per_mapper=target, seed=2)
        LocalJobRunner(fs).run(job)
        for i in range(2):
            size = fs.status(f"/rtw/part-m-0000{i}").size
            assert target <= size <= target + 200  # overshoot < 1 sentence

    def test_mappers_produce_distinct_content(self, fs):
        job = random_text_job("/rtw", num_mappers=2, bytes_per_mapper=500, seed=3)
        LocalJobRunner(fs).run(job)
        assert fs.read_file("/rtw/part-m-00000") != fs.read_file("/rtw/part-m-00001")

    def test_seed_reproducibility(self, fs):
        job = random_text_job("/a", num_mappers=1, bytes_per_mapper=400, seed=9)
        LocalJobRunner(fs).run(job)
        job2 = random_text_job("/b", num_mappers=1, bytes_per_mapper=400, seed=9)
        LocalJobRunner(fs).run(job2)
        assert fs.read_file("/a/part-m-00000") == fs.read_file("/b/part-m-00000")

    def test_output_bytes_pinned(self, fs):
        # More than one 64 KB output write per file: batching the
        # writes and skipping the one-reducer hash change no byte.
        job = random_text_job("/rtw", num_mappers=2, bytes_per_mapper=70_000, seed=7)
        result = LocalJobRunner(fs).run(job)
        digests = [hashlib.sha256(fs.read_file(p)).hexdigest() for p in result.output_paths]
        assert digests == [
            "fd528053d62175d4d95d7e8e1e320169bc2d5863f7c6f99b696d6e7b0b229d44",
            "9ca73d0d4e808cabad9f5940c2d50b15652252a50196afa6e9ca45d76ac7483d",
        ]
        assert result.counters["output_bytes"] == 70_102 + 70_060

    def test_validation(self):
        with pytest.raises(ValueError):
            random_text_job("/o", num_mappers=0, bytes_per_mapper=10)
        with pytest.raises(ValueError):
            random_text_job("/o", num_mappers=1, bytes_per_mapper=0)


class TestPipelines:
    def test_rtw_output_greppable(self, fs):
        """The paper's workflow shape: one job's output is another's input."""
        LocalJobRunner(fs).run(
            random_text_job("/rtw", num_mappers=2, bytes_per_mapper=3000, seed=4)
        )
        result = LocalJobRunner(fs).run(grep_job(["/rtw"], "/grepped", WORDS[0]))
        (path,) = result.output_paths
        content = fs.read_file(path).decode().strip()
        reference = sum(
            1
            for i in range(2)
            for line in fs.read_file(f"/rtw/part-m-0000{i}").decode().splitlines()
            if WORDS[0] in line
        )
        if reference:
            assert int(content.split("\t")[1]) == reference
        else:
            assert content == ""

    def test_rtw_output_wordcountable(self, fs):
        LocalJobRunner(fs).run(
            random_text_job("/rtw", num_mappers=1, bytes_per_mapper=2000, seed=5)
        )
        result = LocalJobRunner(fs).run(wordcount_job(["/rtw"], "/wc", num_reducers=2))
        total = 0
        for path in result.output_paths:
            for line in fs.read_file(path).decode().splitlines():
                word, n = line.split("\t")
                assert word in WORDS
                total += int(n)
        reference = len(fs.read_file("/rtw/part-m-00000").split())
        assert total == reference
