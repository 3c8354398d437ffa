"""Set-up time of avgcycle in a fresh process.

Reads a problem file on standard input, then times importing avgcycle and
parsing and validating the problem into a series and a chart.  Prints the
raw and the speed-normalised seconds (see ``speed.py``).  ``run.py`` starts
this once per set-up sample:

    python3 perfbench/setup_probe.py <checkout>/src < problem.prob
"""

import sys
import time

from speed import SpeedSampler


def main():
    src = sys.argv[1]
    text = sys.stdin.read()
    with SpeedSampler(period=0.005) as sampler:
        t0 = time.perf_counter()
        sys.path.insert(0, src)
        import avgcycle.cli  # noqa: F401  (the entry point users run)
        from avgcycle.problems import parse_problem_text

        problem = parse_problem_text(text)
        problem.series()
        if problem.manifold is not None:
            problem.chart()
        raw = time.perf_counter() - t0
    print(repr(raw), repr(sampler.normalise(raw)))


if __name__ == "__main__":
    main()
