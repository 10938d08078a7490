"""Regression pins for the shared content-digest helpers.

``repro.utils.digest`` is the single canonical-JSON + SHA-256 encoder
behind cache keys, service job dedup, checkpoint stamps and the kernel
differential harness.  These tests pin the *exact* encodings and hex
digests: a change here silently invalidates every existing cache entry
and breaks cross-backend state comparison, so any intentional change
must update these pins knowingly.
"""

from repro.utils.digest import canonical_json, digest_json, digest_text


class TestCanonicalJson:
    def test_key_order_is_canonicalized(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_encoding_pin(self):
        document = {
            "b": 1,
            "a": [1.5, "x", None, True],
            "nested": {"z": 0.1, "y": -2},
        }
        assert (
            canonical_json(document)
            == '{"a":[1.5,"x",null,true],"b":1,"nested":{"y":-2,"z":0.1}}'
        )

    def test_floats_encode_exactly(self):
        # repr-based float formatting: distinct values never collide.
        assert canonical_json(0.1) != canonical_json(0.1 + 2**-55)


class TestDigestPins:
    def test_digest_text_pin(self):
        assert digest_text("repro") == (
            "681d1638f10411fb29eb810a9184e68742579702b7f53496db912a21c3f9441a"
        )

    def test_digest_json_pin(self):
        document = {
            "b": 1,
            "a": [1.5, "x", None, True],
            "nested": {"z": 0.1, "y": -2},
        }
        assert digest_json(document) == (
            "e88f6652995d67cb9c87cd40f06d090ced1d6fab9be132180dac3ccefa5f98a3"
        )

    def test_empty_document_pin(self):
        assert digest_json({}) == (
            "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"
        )

    def test_digest_json_is_digest_of_canonical_text(self):
        document = {"k": [1, 2, 3]}
        assert digest_json(document) == digest_text(canonical_json(document))


class TestSharedConsumers:
    """The consolidated call sites must actually go through this module."""

    def test_cache_keys_reexports_canonical_json(self):
        from repro.cache.keys import canonical_json as reexported

        assert reexported is canonical_json
