"""Aggregation rules shared by every workload.

The host these figures come from is noisy in a way the guest cannot see:
one identical simulation varies by 2x from run to run, and the slow
stretches last minutes. Means and medians of a run therefore move with
the neighbours' load, while the fastest of many repetitions of the same
short operation stays put. Host time is built from repetitions measured
against a short calibration operation (`Bracketed`); latency tails are
reported only where enough samples lie beyond them.
"""

import math
import statistics


class Reps:
    """Repeated host-time samples per operation key."""

    def __init__(self):
        self.samples = {}

    def add(self, key, seconds):
        self.samples.setdefault(key, []).append(seconds)

    def fastest(self, key):
        return min(self.samples[key])

    def keys(self):
        return list(self.samples)

    def total_fastest(self, keys=None):
        """Sum over operations of each one's fastest repetition."""
        keys = self.keys() if keys is None else keys
        return sum(self.fastest(k) for k in keys)

    def count(self):
        return sum(len(v) for v in self.samples.values())

    def spread(self):
        """Slowest / fastest repetition of the same operation, over the
        operations repeated at least twice: the median and the largest
        ratio, plus how many operations were repeated. A ratio well above
        1 on a change that moves no layer metric means a noisy host, not a
        slower program."""
        ratios = sorted(max(v) / min(v) for v in self.samples.values() if len(v) > 1 and min(v) > 0)
        if not ratios:
            return {"ops_repeated": 0, "median": None, "max": None}
        return {"ops_repeated": len(ratios), "median": statistics.median(ratios), "max": ratios[-1]}


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values, min_beyond=10):
    """The highest percentile of `TAIL_CANDIDATES` that has at least
    `min_beyond` samples strictly above its rank, as ``(pct, value)``;
    ``None`` when even the lowest candidate lacks them."""
    xs = sorted(values)
    n = len(xs)
    for pct in TAIL_CANDIDATES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_beyond:
            return pct, xs[rank - 1]
    return None


class Tally:
    """Operations attempted and failed, with the distinct failure texts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = {}

    def ok(self):
        self.attempted += 1

    def fail(self, what, error):
        self.attempted += 1
        self.failed += 1
        text = f"{what}: {error}"
        self.errors[text] = self.errors.get(text, 0) + 1

    def share(self):
        return self.failed / self.attempted if self.attempted else 0.0


class KeyedTally(Tally):
    """A `Tally` over named operations, each counted once however often a
    run repeats it: an operation fails if any of its attempts failed,
    with the first failure's text. A run that repeats the completed
    operations for as long as time allows then reports the same attempted
    and failed counts on a fast host as on a slow one."""

    def __init__(self):
        super().__init__()
        self.outcomes = {}

    def attempt(self, key, error=None):
        if self.outcomes.get(key) is None:
            self.outcomes[key] = error

    def close(self):
        """Counts every operation attempted so far once; call at the end."""
        for key, error in self.outcomes.items():
            if error is None:
                self.ok()
            else:
                self.fail(key, error)

    def failed_keys(self):
        return {k for k, e in self.outcomes.items() if e is not None}


def median(values):
    return statistics.median(values)


class Bracketed:
    """Operation times measured against a short calibration operation run
    between them.

    The host's slow stretches last minutes, longer than a run, so even an
    operation's fastest repetition moves with them when it repeats only a
    few times, and so does the fastest time of anything run beside it.
    The calibration operation uses no code of the program under test and
    runs between every two operations. Each operation's time is divided
    by the calibration's local time (the mean of the bursts just before
    and just after it), and the quiet-host time of a set of operations is
    the calibration's nominal time, a constant, times the sum of each
    operation's median ratio: seconds on a host where the calibration
    takes `nominal` seconds. A change to the program moves only the
    ratios; a slow stretch moves both sides of each ratio alike.
    """

    def __init__(self, nominal):
        self.nominal = nominal
        self.reference = []  # every calibration time
        self.ratios = Reps()

    def burst(self, times):
        """Records one burst of calibration times, taken between two
        operations, and returns its median: the local calibration time."""
        self.reference.extend(times)
        return median(times)

    def add(self, key, seconds, before, after):
        self.ratios.add(key, seconds / ((before + after) / 2))

    def floor(self):
        """The calibration's fastest time this run (reported, not used)."""
        return min(self.reference)

    def quiet_median(self, key):
        """Quiet-host seconds of the median repetition of `key`."""
        return self.nominal * median(self.ratios.samples[key])

    def total(self, keys=None):
        """Quiet-host seconds for the operations `keys` (default: all)."""
        keys = self.ratios.keys() if keys is None else keys
        return self.nominal * sum(median(self.ratios.samples[k]) for k in keys)
