"""Counters."""

__all__ = ["Counter"]


class Counter:
    """A tag-keyed counter (completions, drops, etc.) with warmup discard."""

    def __init__(self, warmup_until=0.0):
        self.warmup_until = warmup_until
        self._counts = {}

    def add(self, now, tag, n=1):
        if now < self.warmup_until:
            return
        self._counts[tag] = self._counts.get(tag, 0) + n

    def get(self, tag):
        return self._counts.get(tag, 0)

    def total(self):
        return sum(self._counts.values())

    def as_dict(self):
        return dict(self._counts)

    def __repr__(self):
        return f"Counter({self._counts!r})"
