"""Tests for node-spec string parsing."""

import pytest

from repro.config import baseline_node, parse_node


def format_node(node):
    """The spec string of ``node``, in the order ``parse_node`` documents."""
    return (f"{node.core.label}/{node.cache.label}/{node.memory.label}/"
            f"{node.frequency_ghz:g}GHz/{node.vector_bits}b/"
            f"{node.n_cores}c")


class TestParseNode:
    def test_full_spec(self):
        n = parse_node("aggressive/96M:1M/8chDDR4/2.5GHz/512b/32c")
        assert n.core.label == "aggressive"
        assert n.cache.label == "96M:1M"
        assert n.memory.label == "8chDDR4"
        assert n.frequency_ghz == 2.5
        assert n.vector_bits == 512
        assert n.n_cores == 32

    def test_field_order_irrelevant(self):
        a = parse_node("512b/aggressive/2.5GHz")
        b = parse_node("aggressive/2.5GHz/512b")
        assert a.label == b.label

    def test_defaults_from_baseline(self):
        n = parse_node("lowend")
        base = baseline_node()
        assert n.core.label == "lowend"
        assert n.cache == base.cache
        assert n.frequency_ghz == base.frequency_ghz

    def test_case_insensitive(self):
        n = parse_node("AGGRESSIVE/8CHDDR4/2.0ghz/128B/64C")
        assert n.core.label == "aggressive"
        assert n.memory.label == "8chDDR4"

    def test_explicit_base(self):
        base = baseline_node(32)
        n = parse_node("512b", base=base)
        assert n.n_cores == 32
        assert n.vector_bits == 512

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_node("medium/512bitties")

    def test_empty_spec(self):
        with pytest.raises(ValueError):
            parse_node("   ")

    def test_cores_suffix_variants(self):
        assert parse_node("32cores").n_cores == 32
        assert parse_node("1c").n_cores == 1


class TestRoundTrip:
    @pytest.mark.parametrize("spec", [
        "lowend/32M:256K/4chDDR4/1.5GHz/128b/1c",
        "medium/64M:512K/16chHBM/2GHz/64b/64c",
        "high/96M:1M/16chDDR4/3GHz/2048b/32c",
    ])
    def test_format_parse_round_trip(self, spec):
        n = parse_node(spec)
        assert format_node(parse_node(format_node(n))) == format_node(n)

    def test_all_design_space_round_trips(self):
        from repro.config import full_design_space

        for node in list(full_design_space())[::97]:
            assert parse_node(format_node(node)).label == node.label
