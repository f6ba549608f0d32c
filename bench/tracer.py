"""Timing spans and call counters installed around g2points from outside.

A traced function is replaced wherever it is bound: in its defining
module and in every g2points module that imported it by name (sieve
does `from .jacobian import enumerate_Fp_jacobian`, so the span must
sit on `sieve.enumerate_Fp_jacobian` too).  Methods are counted by
replacing the class attribute, which also updates the operator slots.

Spans stay in memory as [name, start, end, parent] and are reduced when
the traced pass ends.  A span opened while another span of the same name
is open (recursion) is not recorded; its time belongs to the outer one.
"""

import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._open = set()
        self._undo = []

    def span(self, name, fn):
        """fn wrapped in a span called name; calls are counted too."""
        spans, stack, opened, counts = (self.spans, self._stack, self._open,
                                        self.counts)
        calls = name + "_calls"
        counts.setdefault(calls, 0)

        def traced(*args, **kwargs):
            counts[calls] += 1
            if name in opened:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            opened.add(name)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                opened.discard(name)
                stack.pop()

        return traced

    def counter(self, name, fn):
        """fn wrapped so that every call adds one to counts[name]."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, modules, fn, wrapper):
        """Bind wrapper in place of fn in every module that holds fn."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def patch_attr(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _union_length(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """Per span: its duration minus the part its child spans cover."""
    children = [[] for _ in spans]
    for name, a, b, parent in spans:
        if parent >= 0:
            children[parent].append((a, b))
    return [(b - a) - _union_length(children[i])
            for i, (_, a, b, _) in enumerate(spans)]


def totals(spans, start=0, stop=None):
    """name -> (inclusive seconds, self seconds), summed over the spans
    spans[start:stop]; parents are indices into the whole list."""
    out = {}
    own_times = self_times(spans)
    for i in range(start, len(spans) if stop is None else stop):
        name, a, b, _ = spans[i]
        own = own_times[i]
        inc, slf = out.get(name, (0.0, 0.0))
        out[name] = (inc + (b - a), slf + own)
    return out
