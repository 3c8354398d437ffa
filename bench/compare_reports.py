"""Compare the hexed reports of two checkouts, problem by problem.

    python3 bench/digest.py --label a --dump reports_a    # in checkout A
    python3 bench/digest.py --label b --dump reports_b    # in checkout B
    python3 bench/compare_reports.py reports_a reports_b

For each problem file in both directories and each top-level block of its
report, prints the largest absolute and the largest relative move of a
float (written by ``float.hex``; relative to the larger magnitude of the
two), each with the path where it occurs, and then every difference that
is not a float move: another string, integer or flag, a key or list entry
on one side only.  Exits 1 when there is such a difference, else 0.
"""

import json
import math
import re
import sys
from pathlib import Path

_HEX = re.compile(r"-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|inf)|nan")


def _float(value):
    """The float a hexed report holds in ``value``, or None."""
    if isinstance(value, str) and _HEX.fullmatch(value):
        return float.fromhex(value)
    return None


def _walk(a, b, path, floats, other):
    """Record the float moves between ``a`` and ``b`` in ``floats`` (path,
    absolute, relative) and every other difference in ``other``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                other.append(f"{path}/{key}: only in {'B' if key not in a else 'A'}")
            else:
                _walk(a[key], b[key], f"{path}/{key}", floats, other)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            other.append(f"{path}: {len(a)} entries against {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", floats, other)
    elif _float(a) is not None and _float(b) is not None:
        x, y = _float(a), _float(b)
        if x == y or (math.isnan(x) and math.isnan(y)):
            floats.append((path, 0.0, 0.0))
        elif math.isfinite(x) and math.isfinite(y):
            size = max(abs(x), abs(y))
            floats.append((path, abs(x - y), abs(x - y) / size))
        else:
            other.append(f"{path}: {x!r} against {y!r}")
    elif a != b:
        other.append(f"{path}: {a!r} against {b!r}")


def compare(a, b):
    """Lines of the comparison of the report directories ``a`` and ``b``,
    and whether any difference is not a float move."""
    lines, differs = [], False
    names = sorted({p.name for p in Path(a).glob("*.json")}
                   | {p.name for p in Path(b).glob("*.json")})
    for name in names:
        if not (Path(a) / name).exists() or not (Path(b) / name).exists():
            lines.append(f"{name}: only in {'B' if not (Path(a) / name).exists() else 'A'}")
            differs = True
            continue
        left, right = (json.loads((Path(d) / name).read_text(encoding="utf-8")) for d in (a, b))
        for block in sorted(left.keys() | right.keys()):
            floats, other = [], []
            _walk(left.get(block), right.get(block), block, floats, other)
            if floats:
                worst_abs = max(floats, key=lambda entry: entry[1])
                worst_rel = max(floats, key=lambda entry: entry[2])
                lines.append(f"{name} {block}: {len(floats)} floats, largest move "
                             f"{worst_abs[1]:.3g} absolute at {worst_abs[0]}, "
                             f"{worst_rel[2]:.3g} relative at {worst_rel[0]}")
            lines += [f"{name} {line}" for line in other]
            differs = differs or bool(other)
    return lines, differs


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, differs = compare(*argv)
    print("\n".join(lines))
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
