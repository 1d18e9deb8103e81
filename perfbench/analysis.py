"""Trace analysis for the wlansim benchmark: span self time and the mapping
of sampled program counters to modules and source files.

A sampled PC is attributed through the linker map of perfbench_probe: the
input section that contains it names the object that supplied the code,
and an object ``libwlansim.a(crc32.cc.o)`` belongs to the module whose
directory under ``src/`` holds ``crc32.cc`` -- here ``crypto``, file
``crypto.crc32``. Anything else (libc, libstdc++, the probe itself, code
outside the executable) is ``other``.
"""

import bisect
import re
from pathlib import Path

MODULES = ["core", "crypto", "mac", "phy", "net", "rate", "stats", "results", "runner",
           "query"]
OTHER = "other"

_ONE_LINE = re.compile(r"^ (\.text\S*)\s+0x([0-9a-f]+)\s+0x([0-9a-f]+)\s+(\S.*)$")
_NAME_ONLY = re.compile(r"^ (\.text\S*)$")
_CONTINUED = re.compile(r"^\s+0x([0-9a-f]+)\s+0x([0-9a-f]+)\s+(\S.*)$")
_ARCHIVE_MEMBER = re.compile(r"libwlansim\.a\((.+)\.cc\.o\)$")


def source_files(src_dir):
    """Maps a source stem (``crc32``) to its module (``crypto``)."""
    stems = {}
    for path in sorted(Path(src_dir).glob("*/*.cc")):
        stems[path.stem] = path.parent.name
    return stems


class PcMap:
    """Sorted .text input sections of one linked executable."""

    def __init__(self, map_path, src_dir):
        stems = source_files(src_dir)
        sections = []
        pending = False
        for line in Path(map_path).read_text(errors="replace").splitlines():
            m = _ONE_LINE.match(line)
            if m:
                sections.append((int(m[2], 16), int(m[3], 16), m[4]))
                pending = False
                continue
            if _NAME_ONLY.match(line):
                pending = True
                continue
            if pending:
                m = _CONTINUED.match(line)
                if m:
                    sections.append((int(m[1], 16), int(m[2], 16), m[3]))
                pending = False
        sections = sorted(s for s in sections if s[1] > 0)
        self._starts = [s[0] for s in sections]
        self._ends = [s[0] + s[1] for s in sections]
        self._labels = [self._label(s[2], stems) for s in sections]

    @staticmethod
    def _label(obj, stems):
        m = _ARCHIVE_MEMBER.search(obj)
        if m and m[1] in stems:
            return stems[m[1]], f"{stems[m[1]]}.{m[1]}"
        return OTHER, OTHER

    def lookup(self, pc):
        """(module, file) for one PC."""
        i = bisect.bisect_right(self._starts, pc) - 1
        if i >= 0 and pc < self._ends[i]:
            return self._labels[i]
        return OTHER, OTHER


# Shared objects whose share of ``other`` is worth its own number.
SHARED_OBJECTS = {"libc.so": "other.libc", "libstdc++.so": "other.libstdcxx"}


def shared_object_ranges(maps_text):
    """(start, end, label) of the SHARED_OBJECTS mappings in /proc/<pid>/maps."""
    ranges = []
    for line in maps_text.splitlines():
        fields = line.split()
        if len(fields) < 6:
            continue
        name = Path(fields[5]).name
        for prefix, label in SHARED_OBJECTS.items():
            if name.startswith(prefix):
                start, end = (int(x, 16) for x in fields[0].split("-"))
                ranges.append((start, end, label))
    return ranges


def self_fractions(traces, pc_map):
    """Share of samples per module and per source file, pooled over traces.

    Each trace is (pcs, maps_text); samples in ``other`` that fall in libc or
    libstdc++ are also counted under ``other.libc`` / ``other.libstdcxx``.
    """
    modules = {}
    files = {}
    total = 0
    for pcs, maps_text in traces:
        shared = shared_object_ranges(maps_text)
        for pc in pcs:
            module, file = pc_map.lookup(pc)
            if module == OTHER:
                file = next((label for lo, hi, label in shared if lo <= pc < hi), OTHER)
            modules[module] = modules.get(module, 0) + 1
            files[file] = files.get(file, 0) + 1
        total += len(pcs)
    total = max(total, 1)
    return ({k: v / total for k, v in modules.items()},
            {k: v / total for k, v in files.items()})


def union_length(intervals):
    """Total length covered by [start, end) intervals, overlaps counted once."""
    covered = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_time(span, children):
    """A span's duration minus the part of it that its children cover.

    ``span`` and each child are (start, end). Children may overlap one
    another (replications on two worker threads); each instant is
    subtracted once. Child time outside the span is ignored.
    """
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - union_length([c for c in clipped if c[0] < c[1]])
