"""Tests of the benchmark's own statistics, HTTP parsing and output
checks. Run from the checkout root:

    python3 -m unittest discover -s perfbench
"""

import io
import statistics
import unittest

import benchlib as bl


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(bl.median([3, 1, 2]), 2)
        self.assertEqual(bl.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            bl.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [12.0, 7.5, 9.25, 30.0, 11.0, 8.0, 10.5, 9.0, 13.0, 7.0]
        self.assertEqual(bl.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = bl.quartiles(values)
        self.assertLess(q1, q2)
        self.assertLess(q2, q3)

    def test_spread_is_interquartile_distance_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(bl.spread(values), (q3 - q1) / q2)
        self.assertEqual(bl.spread([5.0] * 4), 0.0)

    def test_quartiles_need_two_samples(self):
        with self.assertRaises(ValueError):
            bl.quartiles([1.0])


class Tail(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        values = list(range(1, 101))
        value, percentile, n = bl.tail(values)
        self.assertEqual((value, percentile, n), (90, 90.0, 100))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_exactly_ten_samples_lie_beyond(self):
        for n in (11, 12, 37, 250):
            values = [float((i * 7919) % n) for i in range(n)]  # shuffled 0..n-1
            value, percentile, count = bl.tail(values)
            self.assertEqual(count, n)
            self.assertEqual(sum(v > value for v in values), 10, n)
            self.assertAlmostEqual(percentile, 100.0 * (n - 10) / n)

    def test_ten_or_fewer_samples_have_no_tail(self):
        for n in (0, 1, 10):
            with self.assertRaises(ValueError):
                bl.tail(list(range(n)))

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 6.0, 4.0, 0.0, 10.0, 11.0]
        self.assertEqual(bl.tail(values), bl.tail(sorted(values)))
        self.assertEqual(bl.tail(values)[0], 1.0)


def reader(data):
    return io.BufferedReader(io.BytesIO(data))


class ChunkedReader(unittest.TestCase):
    STREAM = (b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
              b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
              b"b\r\n{\"cell\": 0}\r\n"
              b"B;ext=1\r\n{\"cell\": 1}\r\n"
              b"0\r\n\r\n")

    def test_head_then_chunks(self):
        r = reader(self.STREAM)
        status, headers = bl.read_head(r)
        self.assertEqual(status, 200)
        self.assertEqual(headers["transfer-encoding"], "chunked")
        self.assertEqual(headers["connection"], "close")
        self.assertEqual(list(bl.read_chunks(r)), [b'{"cell": 0}', b'{"cell": 1}'])
        self.assertEqual(r.read(), b"")

    def test_chunk_may_hold_several_lines_or_part_of_one(self):
        body = b"3\r\n{\"a\r\n6\r\n\": 1}\n\r\n1\r\n\n\r\n0\r\nX-Trailer: 1\r\n\r\n"
        self.assertEqual(b"".join(bl.read_chunks(reader(body))), b'{"a": 1}\n\n')

    def test_empty_stream(self):
        self.assertEqual(list(bl.read_chunks(reader(b"0\r\n\r\n"))), [])

    def test_truncated_stream_is_an_error(self):
        for cut in (len(self.STREAM) - 3, len(self.STREAM) - 12, 110):
            r = reader(self.STREAM[:cut])
            bl.read_head(r)
            with self.assertRaises(bl.HttpError):
                list(bl.read_chunks(r))

    def test_bad_chunk_size_or_missing_crlf_is_an_error(self):
        with self.assertRaises(bl.HttpError):
            list(bl.read_chunks(reader(b"zz\r\nabc\r\n0\r\n\r\n")))
        with self.assertRaises(bl.HttpError):
            list(bl.read_chunks(reader(b"3\r\nabcXY0\r\n\r\n")))

    def test_sized_body(self):
        r = reader(b"HTTP/1.1 202 Accepted\r\nContent-Length: 21\r\n"
                   b"Connection: keep-alive\r\n\r\n{\"id\": 1, \"cells\": 4}")
        status, headers = bl.read_head(r)
        self.assertEqual(status, 202)
        self.assertEqual(bl.read_sized_body(r, headers), b'{"id": 1, "cells": 4}')
        with self.assertRaises(bl.HttpError):
            r2 = reader(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort")
            bl.read_sized_body(r2, bl.read_head(r2)[1])

    def test_bad_heads(self):
        for head in (b"", b"SPDY 200 OK\r\n\r\n", b"HTTP/1.1 abc OK\r\n\r\n",
                     b"HTTP/1.1 200 OK\r\nno-colon\r\n\r\n", b"HTTP/1.1 200 OK\r\nA: b\r\n"):
            with self.assertRaises(bl.HttpError, msg=head):
                bl.read_head(reader(head))


class DigestAndComparison(unittest.TestCase):
    def test_digest_is_sha256_hex(self):
        self.assertEqual(
            bl.digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        self.assertNotEqual(bl.digest(b"a\n"), bl.digest(b"a"))

    def test_first_difference(self):
        self.assertIsNone(bl.first_difference(b"abc\n", b"abc\n"))
        self.assertEqual(bl.first_difference(b"abc\n", b"abd\n"), 2)
        self.assertEqual(bl.first_difference(b"abc\n", b"abc"), 3)
        self.assertEqual(bl.first_difference(b"", b"x"), 0)

    def test_cell_lines_drop_the_variant_summary(self):
        out = (b'{"scenario": "micro", "seed": 1}\n{"scenario": "micro@xen", "seed": 1}\n'
               b'{"variant": "virtio-mem", "cells": 1}\n{"variant": "xen", "cells": 1}\n')
        self.assertEqual(bl.cell_lines(out, 2),
                         b'{"scenario": "micro", "seed": 1}\n{"scenario": "micro@xen", "seed": 1}\n')
        self.assertEqual(bl.cell_lines(out, 4), out)
        with self.assertRaises(ValueError):
            bl.cell_lines(out, 5)


if __name__ == "__main__":
    unittest.main()
