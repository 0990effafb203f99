"""EHNAConfig's parallelism knobs validate and default to one inline shard."""

from __future__ import annotations

import pytest

from repro.core import EHNAConfig


class TestParallelConfig:
    def test_defaults_keep_the_legacy_path(self):
        # One inline shard is the whole-batch step the training goldens pin.
        cfg = EHNAConfig()
        assert cfg.num_workers == 1
        assert cfg.parallel_shards == 1
        assert cfg.candidate_cap == 0
        cfg.validate()

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            EHNAConfig(num_workers=-1).validate()
        with pytest.raises(ValueError):
            EHNAConfig(candidate_cap=-1).validate()
        with pytest.raises(ValueError):
            EHNAConfig(parallel_shards=0).validate()

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            EHNAConfig(num_workers=0).validate()

    def test_more_workers_than_shards_rejected(self):
        with pytest.raises(ValueError, match="exceeds parallel_shards=1"):
            EHNAConfig(num_workers=2).validate()
        EHNAConfig(num_workers=2, parallel_shards=2).validate()
