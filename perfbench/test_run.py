"""Tests that the runner fails, rather than reporting 0, when a reading
it needs is missing. Run from the checkout root:

    python3 -m unittest discover -s perfbench
"""

import subprocess
import sys
import unittest

import run


class MissingReadingsFail(unittest.TestCase):
    def test_proc_field_of_an_ended_process_is_an_error(self):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        server = run.Server.__new__(run.Server)
        server.proc = proc
        with self.assertRaises(run.BenchError):
            server.proc_field("status", "VmHWM")

    def test_rss_line_is_parsed_and_its_absence_noticed(self):
        self.assertEqual(
            run.RSS_LINE.search(b"x\ncampaign: peak RSS 24968 KiB\n").group(1), b"24968")
        self.assertIsNone(run.RSS_LINE.search(b"campaign: 3 cells\n"))


if __name__ == "__main__":
    unittest.main()
