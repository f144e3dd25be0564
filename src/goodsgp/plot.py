"""Deterministic plain text and SVG pictures of a good semigroup of N^2.

The picture shows the small elements as dots, the rays leaving the border
of the small box, and the hatched cone above the conductor.  Rendering is
fully deterministic: same semigroup in, byte identical output out, with no
drawing library involved.
"""

from __future__ import annotations

from .errors import UnsupportedDimension
from .semigroup import GoodSemigroup

__all__ = ["render_plot"]

# lattice steps drawn past the conductor for rays and the cone
MARGIN = 2

_SCALE = 20
_PAD = 30
_DOT = 4


def render_plot(s: GoodSemigroup, fmt: str = "svg") -> str:
    """Render the semigroup as an "svg" or "ascii" string."""
    if s.dim != 2:
        raise UnsupportedDimension("plotting is implemented for n = 2 only")
    if fmt == "svg":
        return _render_svg(s)
    if fmt == "ascii":
        return _render_ascii(s)
    raise ValueError("unknown plot format %r" % (fmt,))


def _render_ascii(s: GoodSemigroup) -> str:
    top = s.small.top
    xmax = top[0] + MARGIN
    ymax = top[1] + MARGIN
    lines = []
    for y in range(ymax, -1, -1):
        row = []
        for x in range(xmax + 1):
            if not s.small.contains((x, y)):
                ch = "."
            elif x <= top[0] and y <= top[1]:
                ch = "o"
            elif x >= top[0] and y >= top[1]:
                ch = "#"
            else:
                ch = "-" if x > top[0] else "|"
            row.append(ch)
        lines.append("%3d  %s" % (y, " ".join(row)))
    ruler = " ".join("+" if x % 5 == 0 else "-" for x in range(xmax + 1))
    lines.append("     %s" % ruler)
    lines.append("     x from 0 to %d, ticks every 5 columns" % xmax)
    lines.append("")
    lines.append("o small element   - | ray   # cone above the conductor")
    lines.append("conductor (%d, %d)" % (top[0], top[1]))
    return "\n".join(lines) + "\n"


def _render_svg(s: GoodSemigroup) -> str:
    top = s.small.top
    xmax = top[0] + MARGIN
    ymax = top[1] + MARGIN
    width = 2 * _PAD + _SCALE * xmax
    height = 2 * _PAD + _SCALE * ymax

    def sx(x):
        return _PAD + _SCALE * x

    def sy(y):
        return height - _PAD - _SCALE * y

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height)
    )
    out.append('<rect width="%d" height="%d" fill="white"/>' % (width, height))
    out.append(
        '<defs><pattern id="cone" width="6" height="6" '
        'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#999999" stroke-width="1"/>'
        "</pattern></defs>"
    )

    # light grid
    for x in range(xmax + 1):
        out.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#eeeeee" '
            'stroke-width="1"/>' % (sx(x), sy(0), sx(x), sy(ymax))
        )
    for y in range(ymax + 1):
        out.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#eeeeee" '
            'stroke-width="1"/>' % (sx(0), sy(y), sx(xmax), sy(y))
        )

    # hatched cone above the conductor
    out.append(
        '<rect x="%d" y="%d" width="%d" height="%d" fill="url(#cone)" '
        'stroke="#999999" stroke-width="1"/>'
        % (sx(top[0]), sy(ymax), _SCALE * (xmax - top[0]), _SCALE * (ymax - top[1]))
    )

    # axes
    out.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333333" '
        'stroke-width="1"/>' % (sx(0), sy(0), sx(xmax), sy(0))
    )
    out.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333333" '
        'stroke-width="1"/>' % (sx(0), sy(0), sx(0), sy(ymax))
    )

    # rays from the border of the small box
    for p in s.small.points:
        if p[0] == top[0]:
            out.append(
                '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#777777" '
                'stroke-width="1" stroke-dasharray="4 3"/>'
                % (sx(p[0]), sy(p[1]), sx(xmax), sy(p[1]))
            )
        if p[1] == top[1]:
            out.append(
                '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#777777" '
                'stroke-width="1" stroke-dasharray="4 3"/>'
                % (sx(p[0]), sy(p[1]), sx(p[0]), sy(ymax))
            )

    # small elements on top of everything else
    for p in s.small.points:
        out.append(
            '<circle cx="%d" cy="%d" r="%d" fill="#1f4e79"/>'
            % (sx(p[0]), sy(p[1]), _DOT)
        )

    out.append(
        '<text x="%d" y="%d" font-size="12" fill="#333333">(%d, %d)</text>'
        % (sx(top[0]) + 6, sy(top[1]) - 6, top[0], top[1])
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
