"""Boom-bust detection run by run: the reference that the scan of
reflexivity.analysis.detect_boom_bust is tested against.

monotone_runs splits the orbit into maximal strictly monotone runs with one
Python step per difference, and detect_boom_bust pairs each run with the
next, as the analysis layer did before its scan over the sign column.
"""

from reflexivity.analysis import BoomBustEvent


def monotone_runs(xs):
    """Maximal strictly monotone runs as (sign, start, end) index triples.
    A step whose difference is not positive or negative (flat, NaN) is in
    no run."""
    runs = []
    sign = start = i = 0
    for a, b in zip(xs, xs[1:]):
        d = b - a
        s = 1 if d > 0 else (-1 if d < 0 else 0)
        if s != sign:
            if sign:
                runs.append((sign, start, i))
            sign, start = s, i
        i += 1
    if sign:
        runs.append((sign, start, len(xs) - 1))
    return runs


def detect_boom_bust(o, min_run, retrace_threshold):
    """detect_boom_bust for valid min_run and retrace_threshold."""
    xs = o.xs() if hasattr(o, "xs") else list(o)
    events = []
    runs = monotone_runs(xs)
    for run, nxt in zip(runs, runs[1:]):
        sign, i, j = run
        nsign, nstart, nend = nxt
        if j - i < min_run or nstart != j or nsign != -sign:
            continue
        amplitude = xs[j] - xs[i]
        retrace = abs(xs[j] - xs[nend])
        fraction = min(1.0, retrace / abs(amplitude))
        if fraction >= retrace_threshold:
            events.append(BoomBustEvent(i, j, nend, amplitude, fraction))
    return events
