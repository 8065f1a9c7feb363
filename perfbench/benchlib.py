"""Statistics, HTTP and output-checking helpers for the perfbench runner.

Everything here is pure or works on a file-like object, so
``test_benchlib.py`` can test it without a build or a server.
"""

import hashlib
import statistics


def median(values):
    """Median of a non-empty sequence (mean of the middle two if even)."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` computes them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def tail(values, beyond=10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples)``. With ``n`` samples sorted
    ascending, the value of nearest rank ``n - beyond`` has exactly
    ``beyond`` samples after it, and that rank is percentile
    ``100 * (n - beyond) / n``. With ``beyond`` or fewer samples no
    percentile qualifies, and this raises ``ValueError``.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    ordered = sorted(values)
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def digest(data):
    """SHA-256 hex digest of output bytes."""
    return hashlib.sha256(data).hexdigest()


def first_difference(expected, got):
    """Byte offset of the first difference, or ``None`` when identical.

    A strict prefix differs at the shorter length.
    """
    if expected == got:
        return None
    for i, (a, b) in enumerate(zip(expected, got)):
        if a != b:
            return i
    return min(len(expected), len(got))


def cell_lines(ndjson, cells):
    """The first ``cells`` lines of a ``campaign --json`` output: the
    per-cell records, without the cross-variant summary that follows
    them for multi-variant grids. Server streams carry exactly these."""
    lines = ndjson.splitlines(keepends=True)
    if len(lines) < cells:
        raise ValueError(f"reference has {len(lines)} lines, grid has {cells} cells")
    return b"".join(lines[:cells])


class HttpError(Exception):
    """A malformed or unexpected HTTP/1.1 response."""


def read_head(reader):
    """Reads a response head from a binary file-like ``reader``.

    Returns ``(status, headers)`` with lower-cased header names.
    """
    status_line = reader.readline()
    if not status_line:
        raise HttpError("connection closed before a response")
    parts = status_line.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpError(f"bad status line {status_line!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise HttpError(f"bad status line {status_line!r}") from None
    headers = {}
    while True:
        line = reader.readline()
        if not line:
            raise HttpError("connection closed inside the response head")
        if line in (b"\r\n", b"\n"):
            return status, headers
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(f"bad header line {line!r}")
        headers[name.strip().lower()] = value.strip()


def read_sized_body(reader, headers):
    """Reads a ``Content-Length`` body."""
    length = int(headers.get("content-length", "0"))
    body = reader.read(length)
    if len(body) != length:
        raise HttpError(f"body cut short: {len(body)} of {length} bytes")
    return body


def read_chunks(reader):
    """Yields the data of each chunk of a chunked body, in order, and
    stops after the terminating zero-size chunk and its trailer."""
    while True:
        size_line = reader.readline()
        if not size_line:
            raise HttpError("connection closed inside a chunked body")
        size_text = size_line.split(b";", 1)[0].strip()
        try:
            size = int(size_text, 16)
        except ValueError:
            raise HttpError(f"bad chunk size line {size_line!r}") from None
        if size == 0:
            # Trailer section: header lines up to an empty line.
            while True:
                line = reader.readline()
                if not line:
                    raise HttpError("connection closed inside the chunk trailer")
                if line in (b"\r\n", b"\n"):
                    return
        data = reader.read(size)
        if len(data) != size:
            raise HttpError(f"chunk cut short: {len(data)} of {size} bytes")
        if reader.read(2) != b"\r\n":
            raise HttpError("chunk data not followed by CRLF")
        yield data
