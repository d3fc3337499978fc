"""StoreConfig: the validated construction surface of LocalBlobStore.

Covers the three contract points of the construction surface:

* ``LocalBlobStore(config=StoreConfig(...))`` is the only path — loose
  keywords are a ``TypeError``;
* the field set is exactly the fourteen documented knobs (the two
  ablation toggles the store no longer forks on, and the node-cache
  capacity that is now a constant, are rejected);
* ``validate()`` rejects the documented silently-broken combinations
  with messages that name the offending fields.
"""

import dataclasses

import pytest

from repro.blob import LocalBlobStore, StoreConfig
from repro.bsfs.filesystem import BSFSFileSystem
from repro.blob.provider_manager import RandomPolicy

#: One non-default value per field, exercising the whole surface.
NON_DEFAULTS = dict(
    data_providers=5,
    metadata_providers=3,
    block_size="32KB",
    replication=2,
    metadata_replication=2,
    placement="least_loaded",
    seed=7,
    io_workers=2,
    io_scheduler="async",  # the default, and its only accepted value
    max_in_flight=256,
    provider_latency=0.001,
    metadata_latency=0.002,
    vman_latency=0.003,
    overlap_publish=True,
)


class TestStoreConfig:
    def test_field_set_is_the_fourteen_documented_knobs(self):
        assert set(StoreConfig.__dataclass_fields__) == set(NON_DEFAULTS)
        assert len(NON_DEFAULTS) == 14
        assert StoreConfig(**NON_DEFAULTS).validate()

    @pytest.mark.parametrize(
        "removed", ["metadata_batching", "group_commit", "metadata_cache_nodes"]
    )
    def test_removed_ablation_toggles_are_rejected(self, removed):
        with pytest.raises(TypeError, match=removed):
            StoreConfig(**{removed: False})

    def test_defaults_validate(self):
        config = StoreConfig()
        assert config.validate() is config

    def test_derived_views(self):
        config = StoreConfig(data_providers=2, metadata_providers=2, block_size="1KB")
        assert config.provider_names() == ["provider-000", "provider-001"]
        assert config.metadata_bucket_names() == ["mdp-000", "mdp-001"]
        assert config.block_size_bytes() == 1024

    def test_explicit_names_pass_through(self):
        config = StoreConfig(data_providers=["a", "b"], metadata_providers=["m"])
        assert config.provider_names() == ["a", "b"]
        assert config.metadata_bucket_names() == ["m"]

    def test_replace_returns_a_modified_copy(self):
        base = StoreConfig()
        tweaked = dataclasses.replace(base, replication=3, data_providers=8)
        assert tweaked.replication == 3 and base.replication == 1
        assert isinstance(tweaked, StoreConfig)


class TestCanonicalConstruction:
    def test_config_object_is_canonical(self):
        store = LocalBlobStore(
            config=StoreConfig(data_providers=3, block_size="4KB", replication=2)
        )
        assert store.block_size == 4096
        assert store.replication == 2
        assert len(store.providers) == 3
        assert store.config.data_providers == 3
        store.close()

    def test_no_arguments_builds_the_default_config(self):
        store = LocalBlobStore()
        assert store.config == StoreConfig()
        store.close()

    def test_invalid_config_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="replication"):
            LocalBlobStore(config=StoreConfig(data_providers=2, replication=5))

    def test_config_must_be_a_storeconfig(self):
        with pytest.raises(TypeError, match="StoreConfig"):
            LocalBlobStore(config={"data_providers": 4})


    @pytest.mark.parametrize("factory", [LocalBlobStore, BSFSFileSystem])
    def test_loose_keywords_are_a_type_error(self, factory):
        with pytest.raises(TypeError, match="io_workers"):
            factory(io_workers=8)


class TestValidation:
    @pytest.mark.parametrize(
        ("changes", "match"),
        [
            (dict(data_providers=0), "at least one provider"),
            (dict(metadata_providers=0), "at least one bucket"),
            (dict(data_providers=["a", "a"]), "duplicate data-provider"),
            (dict(metadata_providers=["m", "m"]), "duplicate metadata-bucket"),
            (dict(block_size=0), "block_size"),
            (dict(replication=0), "replication must be >= 1"),
            (dict(data_providers=2, replication=3), "exceeds the 2 configured"),
            (dict(metadata_replication=0), "metadata_replication must be >= 1"),
            (dict(metadata_providers=1, metadata_replication=2), "exceeds the 1"),
            (dict(placement="zigzag"), "unknown placement"),
            (dict(io_workers=-1), "io_workers"),
            (dict(io_scheduler="fibers"), "io_scheduler"),
            (dict(max_in_flight=0), "max_in_flight"),
            (dict(provider_latency=-0.1), "provider_latency"),
            (dict(metadata_latency=-0.1), "metadata_latency"),
            (dict(vman_latency=-0.1), "vman_latency"),
            (dict(overlap_publish=True, io_workers=0), "requires io_workers > 0"),
            (dict(io_scheduler="threads"), "thread-pool scheduler was removed, and io_workers"),
        ],
    )
    def test_rejects_invalid_combo(self, changes, match):
        with pytest.raises(ValueError, match=match):
            StoreConfig(**changes).validate()

    def test_bool_provider_count_is_the_documented_typo_trap(self):
        with pytest.raises(ValueError, match="count or name list"):
            StoreConfig(data_providers=True).validate()

    def test_placement_instance_is_accepted(self):
        config = StoreConfig(placement=RandomPolicy())
        assert config.validate() is config
        store = LocalBlobStore(config=config)
        store.close()

    def test_overlap_needs_an_engine_whatever_io_scheduler_says(self):
        # io_scheduler selects nothing: with io_workers=0 there is no
        # engine for the overlapped scatter to run on.
        with pytest.raises(ValueError, match="overlap_publish=True requires io_workers"):
            StoreConfig(overlap_publish=True, io_workers=0, io_scheduler="async").validate()

    def test_io_workers_selects_the_one_engine(self):
        from repro.blob import AsyncIOEngine

        with LocalBlobStore(
            config=StoreConfig(io_workers=2, max_in_flight=32)
        ) as store:
            assert isinstance(store.io_engine, AsyncIOEngine)
            assert store.io_engine.max_in_flight == 32
        with LocalBlobStore(config=StoreConfig(io_scheduler="async")) as store:
            assert store.io_engine is None
        with LocalBlobStore(config=StoreConfig()) as store:
            assert store.io_engine is None
