"""The paper's Map/Reduce applications plus canonical extras."""

from repro.mapreduce.apps.grep import MATCH_KEY, grep_job
from repro.mapreduce.apps.random_text import WORDS, random_sentence, random_text_job
from repro.mapreduce.apps.wordcount import wordcount_job

__all__ = [
    "grep_job",
    "MATCH_KEY",
    "random_text_job",
    "random_sentence",
    "WORDS",
    "wordcount_job",
]
