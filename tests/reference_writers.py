"""Per-element CSV and SVG writers, kept as the byte-level reference.

`gclab spectra` formats whole arrays at once; these helpers format one value
at a time, the way the files were first written, so tests can require the
same bytes from both.
"""

import csv
import io

import numpy as np

WIDTH, HEIGHT, MARGIN = 640, 400, 48


def csv_rows_text(header, rows) -> str:
    """csv.writer output for the header and rows, one '\\n' after each line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def spectrum_csv(lam) -> str:
    return csv_rows_text(["index", "eigenvalue"], [(k, f"{lam[k]:.12g}") for k in range(len(lam))])


def series_csv(lam, series, labels) -> str:
    rows = [
        tuple([f"{lam[k]:.12g}"] + [f"{s[k]:.12g}" for s in series])
        for k in range(len(lam))
    ]
    return csv_rows_text(["eigenvalue"] + labels, rows)


def _scaled(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) * (out_hi - out_lo) / span


def line_plot_svg(x, series, title="", labels=None) -> str:
    """The SVG plot with each point formatted on its own, twice per point."""
    x = np.asarray(x, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series]
    all_y = np.concatenate(series) if series else np.zeros(1)
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

    px = _scaled(x, x_lo, x_hi, MARGIN, WIDTH - MARGIN)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    x_axis_y = HEIGHT - MARGIN
    parts.append(
        f'<line x1="{MARGIN}" y1="{x_axis_y}" x2="{WIDTH - MARGIN}" y2="{x_axis_y}" '
        'stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{x_axis_y}" stroke="black"/>'
    )
    for idx, s in enumerate(series):
        py = _scaled(s, y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = colors[idx % len(colors)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for a, b in zip(px, py):
            parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" fill="{color}"/>')
        if labels and idx < len(labels):
            parts.append(
                f'<text x="{WIDTH - MARGIN + 4}" y="{MARGIN + 16 * idx + 8}" '
                f'font-family="sans-serif" font-size="11" fill="{color}">{labels[idx]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
