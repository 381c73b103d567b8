"""Trace serialization: save/load traces, plus a CLI inspector.

Three interchangeable on-disk formats, all exact round-trips:

* **gzipped JSON** (``save_trace``/``load_trace``) — the original format:
  one JSON object with column-major instruction arrays.
* **JSONL** (``save_trace_jsonl``/``load_trace_jsonl``) — a header object
  on the first line, one compact instruction row per following line.
  Line-oriented, so external recorders can stream-append and standard
  text tools can slice/inspect.
* **compact binary** (``save_trace_bin``/``load_trace_bin``) — a
  struct-packed format roughly 5x smaller than the JSON forms, for large
  recorded traces.

:func:`load_trace_any` sniffs the format from the file's leading bytes, so
ingestion (``repro.workloads.ingest``) accepts any of the three; a file it
cannot read or parse is a :class:`~repro.errors.ConfigError` naming it.

CLI::

    python -m repro.workloads dump mcf_like --n 20000 --out mcf.trace.gz
    python -m repro.workloads info mcf.trace.gz
    python -m repro.workloads list
"""

from __future__ import annotations

import gzip
import json
import struct
import zlib
from pathlib import Path

from ..errors import ConfigError
from .trace import Instr, Op, Trace

FORMAT_VERSION = 1

#: Magic prefix of the compact binary format.
BIN_MAGIC = b"RTRC"

#: Per-instruction record: pc, op, dst, addr, data, target, taken, n_srcs
#: (sources follow as signed bytes — register indices are tiny).
_BIN_INSTR = struct.Struct("<qbqqqqbB")
_BIN_PAIR = struct.Struct("<qq")


def trace_to_dict(trace: Trace) -> dict:
    """Column-major plain-data representation of a trace."""
    instrs = trace.instrs
    return {
        "format_version": FORMAT_VERSION,
        "name": trace.name,
        "category": trace.category,
        "count": len(instrs),
        "pc": [i.pc for i in instrs],
        "op": [int(i.op) for i in instrs],
        "srcs": [list(i.srcs) for i in instrs],
        "dst": [i.dst for i in instrs],
        "addr": [i.addr for i in instrs],
        "data": [i.data for i in instrs],
        "taken": [int(i.taken) for i in instrs],
        "target": [i.target for i in instrs],
        "memory_image": [[k, v] for k, v in trace.memory_image.items()],
    }


def trace_from_dict(payload: dict) -> Trace:
    """Inverse of :func:`trace_to_dict`; validates the format version."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {version!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    count = payload["count"]
    columns = (
        payload["pc"], payload["op"], payload["srcs"], payload["dst"],
        payload["addr"], payload["data"], payload["taken"], payload["target"],
    )
    if any(len(col) != count for col in columns):
        raise ValueError("corrupt trace: column lengths disagree with count")
    instrs = [
        Instr(
            pc=pc,
            op=Op(op),
            srcs=tuple(srcs),
            dst=dst,
            addr=addr,
            data=data,
            taken=bool(taken),
            target=target,
        )
        for pc, op, srcs, dst, addr, data, taken, target in zip(*columns)
    ]
    image = {k: v for k, v in payload["memory_image"]}
    trace = Trace(payload["name"], payload["category"], instrs, image)
    trace.validate()
    return trace


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace as gzipped JSON."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(trace_to_dict(trace), fh)


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return trace_from_dict(json.load(fh))


# ------------------------------------------------------------------- JSONL


def save_trace_jsonl(trace: Trace, path: str | Path) -> None:
    """Write a trace as JSON Lines: header object, then one row per instr.

    Each row is ``[pc, op, srcs, dst, addr, data, taken, target]`` — the
    column order of :func:`trace_to_dict`, row-major so recorders can
    append as they go.
    """
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "format_version": FORMAT_VERSION,
            "kind": "trace-jsonl",
            "name": trace.name,
            "category": trace.category,
            "count": len(trace.instrs),
            "memory_image": [[k, v] for k, v in trace.memory_image.items()],
        }
        fh.write(json.dumps(header) + "\n")
        for i in trace.instrs:
            row = [i.pc, int(i.op), list(i.srcs), i.dst, i.addr, i.data,
                   int(i.taken), i.target]
            fh.write(json.dumps(row) + "\n")


def load_trace_jsonl(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace_jsonl`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if (
            header.get("format_version") != FORMAT_VERSION
            or header.get("kind") != "trace-jsonl"
        ):
            raise ValueError(
                f"{path} is not a version-{FORMAT_VERSION} JSONL trace"
            )
        instrs = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            pc, op, srcs, dst, addr, data, taken, target = json.loads(line)
            instrs.append(Instr(
                pc=pc, op=Op(op), srcs=tuple(srcs), dst=dst, addr=addr,
                data=data, taken=bool(taken), target=target,
            ))
    if len(instrs) != header["count"]:
        raise ValueError(
            f"corrupt JSONL trace {path}: header says {header['count']} "
            f"instructions, found {len(instrs)}"
        )
    image = {k: v for k, v in header["memory_image"]}
    trace = Trace(header["name"], header["category"], instrs, image)
    trace.validate()
    return trace


# ------------------------------------------------------------ compact binary


def save_trace_bin(trace: Trace, path: str | Path) -> None:
    """Write a trace in the struct-packed compact binary format."""
    name = trace.name.encode()
    category = trace.category.encode()
    with open(path, "wb") as fh:
        fh.write(BIN_MAGIC)
        fh.write(struct.pack("<HHH", FORMAT_VERSION, len(name), len(category)))
        fh.write(name)
        fh.write(category)
        fh.write(struct.pack("<QQ", len(trace.instrs), len(trace.memory_image)))
        for i in trace.instrs:
            fh.write(_BIN_INSTR.pack(
                i.pc, int(i.op), i.dst, i.addr, i.data, i.target,
                int(i.taken), len(i.srcs),
            ))
            if i.srcs:
                fh.write(struct.pack(f"<{len(i.srcs)}b", *i.srcs))
        for addr, value in trace.memory_image.items():
            fh.write(_BIN_PAIR.pack(addr, value))


def load_trace_bin(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace_bin`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != BIN_MAGIC:
        raise ValueError(f"{path} is not a compact binary trace (bad magic)")
    instrs = []
    try:
        version, name_len, cat_len = struct.unpack_from("<HHH", data, 4)
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported binary trace version {version} "
                f"(this build reads {FORMAT_VERSION})"
            )
        offset = 10
        name = data[offset:offset + name_len].decode(); offset += name_len
        category = data[offset:offset + cat_len].decode(); offset += cat_len
        count, image_len = struct.unpack_from("<QQ", data, offset)
        offset += 16
        for _ in range(count):
            pc, op, dst, addr, value, target, taken, n_srcs = (
                _BIN_INSTR.unpack_from(data, offset)
            )
            offset += _BIN_INSTR.size
            srcs = struct.unpack_from(f"<{n_srcs}b", data, offset)
            offset += n_srcs
            instrs.append(Instr(
                pc=pc, op=Op(op), srcs=srcs, dst=dst, addr=addr,
                data=value, taken=bool(taken), target=target,
            ))
        image = {}
        for _ in range(image_len):
            addr, value = _BIN_PAIR.unpack_from(data, offset)
            offset += _BIN_PAIR.size
            image[addr] = value
    except struct.error as exc:
        raise ValueError(f"corrupt binary trace {path}: {exc}") from exc
    trace = Trace(name, category, instrs, image)
    trace.validate()
    return trace


# ------------------------------------------------------------ format sniffing


#: What the format loaders raise on a malformed file: gzip and struct
#: framing errors, bad JSON or UTF-8, and JSON values of the wrong shape
#: (a scalar row, a list header, a missing key).
_MALFORMED = (
    OSError, EOFError, zlib.error, struct.error,
    ValueError, TypeError, KeyError, AttributeError, IndexError,
    OverflowError,
)


def load_trace_any(path: str | Path) -> Trace:
    """Load a trace in any supported format, sniffed from its first bytes.

    gzip magic -> :func:`load_trace`; :data:`BIN_MAGIC` ->
    :func:`load_trace_bin`; otherwise JSONL.  An unreadable or malformed
    file raises :class:`~repro.errors.ConfigError` naming it.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
    except OSError as exc:
        raise ConfigError(f"trace file {path} is unreadable: {exc}") from exc
    if head[:2] == b"\x1f\x8b":
        loader = load_trace
    elif head == BIN_MAGIC:
        loader = load_trace_bin
    else:
        loader = load_trace_jsonl
    try:
        return loader(path)
    except _MALFORMED as exc:
        raise ConfigError(
            f"trace file {path} is malformed: {type(exc).__name__}: {exc}"
        ) from exc


def describe_trace(trace: Trace) -> dict:
    """Summary statistics for the CLI's ``info`` command."""
    op_mix = {op.name: 0 for op in Op}
    for instr in trace.instrs:
        op_mix[instr.op.name] += 1
    return {
        "name": trace.name,
        "category": trace.category,
        "instructions": len(trace),
        "op_mix": {k: v for k, v in op_mix.items() if v},
        "data_footprint_kb": trace.footprint_lines() * 64 // 1024,
        "code_footprint_kb": max(1, trace.code_lines() * 64 // 1024),
        "memory_image_entries": len(trace.memory_image),
    }
