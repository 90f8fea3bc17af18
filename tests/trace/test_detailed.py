"""Tests for detailed trace containers."""

import pytest

from repro.trace import DetailedTrace, InstructionMix, KernelSignature, ReuseProfile


def _sig(name):
    return KernelSignature(
        name=name, instr_per_unit=100.0,
        mix=InstructionMix(fp=0.3, int_alu=0.2, load=0.25, store=0.1,
                           branch=0.1, other=0.05),
        ilp=2.0, vec_fraction=0.5, trip_count=16, mlp=2.0,
        reuse=ReuseProfile.from_components([(10, 1.0)]),
    )


class TestDetailedTrace:
    def test_lookup(self):
        t = DetailedTrace(app="x", kernels={"a": _sig("a"), "b": _sig("b")})
        assert t["a"].name == "a"
        assert "b" in t
        assert t.names() == ("a", "b")

    def test_missing_kernel_message(self):
        t = DetailedTrace(app="x", kernels={"a": _sig("a")})
        with pytest.raises(KeyError, match="no kernel 'z'"):
            t["z"]

    def test_covers(self):
        t = DetailedTrace(app="x", kernels={"a": _sig("a"), "b": _sig("b")})
        assert "a" in t and "b" in t
        assert "c" not in t

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DetailedTrace(app="x", kernels={})

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            DetailedTrace(app="x", kernels={"a": _sig("b")})

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            DetailedTrace(app="x", kernels={"a": object()})

    def test_iterates_kernel_names(self):
        t = DetailedTrace(app="x", kernels={"a": _sig("a")})
        assert list(t) == ["a"]
