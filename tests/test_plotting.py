import math
import xml.dom.minidom

import numpy as np
import pytest

import bilevelbench as bb
from bilevelbench.plotting import (PlotError, Series, plot, render_chart,
                                   series_from_traces)


def count_polyline_vertices(svg_text: str) -> int:
    total = 0
    for chunk in svg_text.split('points="')[1:]:
        total += len(chunk.split('"')[0].split())
    return total


@pytest.fixture
def trace_files(tmp_path, q2_gauss):
    sched = bb.schedule_practical({"alpha": 0.1, "beta": 0.9, "gamma": 0.1,
                                   "eta": 0.01, "T": 30, "T0": 5})
    paths = []
    for seed in (1, 2):
        _, tr = bb.slip_run(q2_gauss, sched, np.zeros(2), np.ones(2),
                            np.zeros(2), seed=seed)
        p = tmp_path / f"algo{seed}.csv"
        bb.write_trace(p, tr)
        paths.append(p)
    return paths


def test_single_trace_vertex_count(trace_files, tmp_path):
    out = tmp_path / "one.svg"
    plot(trace_files[:1], "grad_norm", out)
    svg = out.read_text()
    assert count_polyline_vertices(svg) == 30


def test_two_series_legend(trace_files):
    series = series_from_traces(trace_files, "grad_norm")
    svg = render_chart(series, "grad_norm")
    assert svg.count("<polyline") == 2
    assert "algo1" in svg and "algo2" in svg


def test_legend_escapes_markup(trace_files, tmp_path):
    # a file name is the legend's text, never markup
    p = tmp_path / "a&b<1>.csv"
    p.write_bytes(trace_files[0].read_bytes())
    out = tmp_path / "chart.svg"
    plot([p], "grad_norm", out)
    texts = xml.dom.minidom.parse(str(out)).getElementsByTagName("text")
    assert texts[-1].firstChild.data == "a&b<1>"


def test_missing_values_break_polyline(tmp_path):
    # a non-finite value breaks the line too, and is not written as nan
    for gap in (None, math.nan, math.inf):
        tr = bb.Trace()
        for t in range(6):
            gn = gap if t == 3 else 1.0 + t
            tr.append(bb.TraceRecord(t, gn, None, None, None, None, 0, 0, 0, 0, 0))
        p = tmp_path / "g.csv"
        bb.write_trace(p, tr)
        svg = render_chart(series_from_traces([p], "grad_norm"), "grad_norm")
        assert svg.count("<polyline") == 2
        assert count_polyline_vertices(svg) == 5
        assert "nan" not in svg and "inf" not in svg


def test_unknown_metric_lists_columns(trace_files):
    with pytest.raises(PlotError, match="available"):
        series_from_traces(trace_files, "nope")


def test_logy_requires_positive(tmp_path):
    tr = bb.Trace()
    tr.append(bb.TraceRecord(0, 0.0, None, None, None, None, 0, 0, 0, 0, 0))
    tr.append(bb.TraceRecord(1, 1.0, None, None, None, None, 0, 0, 0, 0, 0))
    p = tmp_path / "g.csv"
    bb.write_trace(p, tr)
    series = series_from_traces([p], "grad_norm")
    with pytest.raises(PlotError, match="positive"):
        render_chart(series, "grad_norm", logy=True)


def test_logy_renders(trace_files, tmp_path):
    out = tmp_path / "log.svg"
    plot(trace_files, "grad_norm", out, logy=True)
    assert "log10(grad_norm)" in out.read_text()


def test_deterministic_bytes(trace_files, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    plot(trace_files, "y_err", a)
    plot(trace_files, "y_err", b)
    assert a.read_bytes() == b.read_bytes()


def test_refused_rename_keeps_old_chart(trace_files, tmp_path, monkeypatch):
    out = tmp_path / "chart.svg"
    plot(trace_files[:1], "grad_norm", out)
    before = out.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("bilevelbench.trace.os.replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        plot(trace_files, "grad_norm", out)
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "algo1.csv", "algo2.csv", "chart.svg"]


def test_no_values_to_plot():
    series = [Series("a", [0.0, 1.0], [None, math.nan])]
    with pytest.raises(PlotError, match="^no values to plot for metric 'y_err'$"):
        render_chart(series, "y_err")


@pytest.mark.parametrize("ts,values,x_ticks,y_ticks,points", [
    ([3.0], [2.0], ["3", "3.25", "3.5", "3.75", "4"],
     ["2", "2.25", "2.5", "2.75", "3"], "64.00,376.00"),
    ([0.0, 1.0, 2.0], [5.0, 5.0, 5.0], ["0", "0.5", "1", "1.5", "2"],
     ["5", "5.25", "5.5", "5.75", "6"],
     "64.00,376.00 344.00,376.00 624.00,376.00"),
], ids=["one-row", "constant-metric"])
def test_zero_width_range_spans_one_unit(ts, values, x_ticks, y_ticks, points):
    # a range of one value becomes [lo, lo + 1], its values on the low axis
    svg = render_chart([Series("a", ts, values)], "grad_norm")
    texts = xml.dom.minidom.parseString(svg).getElementsByTagName("text")

    def labels(anchor):
        return [t.firstChild.data for t in texts
                if t.getAttribute("text-anchor") == anchor]

    assert labels("middle") == [*x_ticks, "t"]
    assert labels("end") == y_ticks
    assert f'points="{points}"' in svg
