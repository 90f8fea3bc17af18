"""Tests for figure/table text rendering."""

import pytest

from repro.analysis import format_panel, format_rows


class TestFormatRows:
    def test_alignment(self):
        out = format_rows("T", ["col", "x"], [["a", 1.23456], ["bb", 2.0]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "1.235" in out
        widths = {len(l) for l in lines[1:]}
        assert len(widths) == 1  # all rows same width

    def test_none_renders_na(self):
        out = format_rows("T", ["v"], [[None]])
        assert "n/a" in out


class TestFormatPanel:
    def test_cells(self):
        table = {"hydro": {128: (1.0, 0.0), 512: (1.2, 0.05)}}
        out = format_panel("Fig", table, values=(128, 512), value_label="vec")
        assert "hydro" in out
        assert "1.200±0.05" in out
        assert "vec=512" in out
