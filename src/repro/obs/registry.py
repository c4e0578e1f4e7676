"""gem5-style hierarchical statistics registry.

Every simulator component publishes named statistics into one
:class:`StatRegistry` under a dotted hierarchy (``core.squashes``,
``l1d.misses``, ``defense.cleanup.restores``, ``dram.accesses``).  Four
stat kinds cover the simulator's needs:

* :class:`Counter` — a monotonically increasing integer the instrumented
  code bumps directly (``registry.counter("core.squashes").inc()``);
* :class:`Gauge` — a value *pulled* at dump time from one or more source
  callables.  Components that already keep their own counter dataclasses
  (``CacheStats``, ``DramStats``, ``MshrStats``…) register zero-overhead
  sources; several components registering under the same name aggregate
  by summation, which is exactly what an experiment spanning many
  hierarchies wants;
* :class:`Distribution` — a histogram-ish accumulator with exact count /
  sum / min / max / mean / stddev moments and percentile estimates from a
  bounded, deterministically-subsampled reservoir;
* :class:`Formula` — a derived stat (IPC, miss rate, overhead ratio)
  evaluated lazily at dump time.

Dump formats: :meth:`StatRegistry.dump_text` renders the flat,
gem5-``stats.txt``-like listing; :meth:`StatRegistry.to_dict` nests the
dotted names into a tree for JSON (:meth:`StatRegistry.dump_json`).
"""

from __future__ import annotations

import json
import math
import re
from typing import Callable, Dict, List, Optional, Union

from ..common.errors import ConfigError

#: Dotted stat names: lowercase segments of [a-z0-9_], at least one dot is
#: conventional ("component.stat") but not required.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

Number = Union[int, float]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigError(
            f"invalid stat name {name!r} (want dotted lowercase identifiers)"
        )
    return name


class Stat:
    """Base class: a named, described statistic."""

    kind = "stat"

    def __init__(self, name: str, desc: str = "") -> None:
        self.name = _check_name(name)
        self.desc = desc

    def value(self):  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def reset(self) -> None:
        """Return the stat to its initial state (pull sources are kept)."""

    def to_entry(self):
        """The JSON-friendly dump value of this stat."""
        return self.value()


class Counter(Stat):
    """Monotonic event counter incremented by instrumented code."""

    kind = "counter"

    def __init__(self, name: str, desc: str = "") -> None:
        super().__init__(name, desc)
        self._count = 0

    def inc(self, n: int = 1) -> None:
        self._count += n

    def value(self) -> int:
        return self._count

    def reset(self) -> None:
        self._count = 0


class Gauge(Stat):
    """A sampled value, optionally pulled from component source callables.

    ``value() = set value + sum(source() for each registered source)``.
    Registering a source is how components with their own stats dataclasses
    (``l1.stats.hits`` …) surface counters with zero hot-path overhead; a
    second component adding a source under the same name aggregates.
    """

    kind = "gauge"

    def __init__(self, name: str, desc: str = "") -> None:
        super().__init__(name, desc)
        self._value: Number = 0
        self._sources: List[Callable[[], Number]] = []

    def set(self, value: Number) -> None:
        self._value = value

    def add_source(self, fn: Callable[[], Number]) -> None:
        self._sources.append(fn)

    @property
    def n_sources(self) -> int:
        return len(self._sources)

    def value(self) -> Number:
        total = self._value
        for fn in self._sources:
            total += fn()
        return total

    def reset(self) -> None:
        self._value = 0


class Distribution(Stat):
    """Sample accumulator: exact moments plus reservoir percentiles.

    Moments (count, sum, min, max, mean, stddev) are exact over every
    sample ever added.  Percentiles come from a bounded reservoir: the
    first ``reservoir`` samples are kept verbatim; afterwards samples
    overwrite deterministic pseudo-random slots (Knuth's multiplicative
    hash of the sample ordinal), so long runs stay O(reservoir) memory
    without an RNG dependency.
    """

    kind = "distribution"

    #: Default reservoir size; squash stalls and latencies fit easily.
    DEFAULT_RESERVOIR = 4096

    def __init__(self, name: str, desc: str = "", reservoir: int = DEFAULT_RESERVOIR) -> None:
        super().__init__(name, desc)
        if reservoir < 1:
            raise ConfigError("distribution reservoir must be >= 1")
        self.reservoir = reservoir
        self.reset()

    def reset(self) -> None:
        self._count = 0
        self._sum = 0.0
        self._sumsq = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def add(self, value: Number) -> None:
        v = float(value)
        self._count += 1
        self._sum += v
        self._sumsq += v * v
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        self._sorted = None
        if len(self._samples) < self.reservoir:
            self._samples.append(v)
        else:
            slot = (self._count * 2654435761) % self.reservoir
            self._samples[slot] = v

    # -- moments ------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def stddev(self) -> float:
        if self._count < 2:
            return 0.0
        var = (self._sumsq - self._sum * self._sum / self._count) / (self._count - 1)
        return math.sqrt(max(0.0, var))

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile ``p`` in [0, 100] of the reservoir."""
        if not 0 <= p <= 100:
            raise ConfigError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        ordered = self._sorted
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def value(self) -> float:
        return self.mean

    def to_entry(self) -> Dict[str, Number]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "stddev": self.stddev,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class Formula(Stat):
    """Derived stat: a callable evaluated at dump time.

    The callable typically closes over other stats, e.g.::

        inst, cyc = reg.counter("core.instructions"), reg.counter("core.cycles")
        reg.formula("core.ipc", lambda: inst.value() / max(1, cyc.value()))
    """

    kind = "formula"

    def __init__(self, name: str, fn: Callable[[], Number], desc: str = "") -> None:
        super().__init__(name, desc)
        self._fn = fn

    def value(self) -> Number:
        return self._fn()


def nest_dotted(flat: Dict[str, object]) -> Dict[str, object]:
    """Nest a flat ``{dotted name: value}`` mapping into a tree.

    Shared by :meth:`StatRegistry.to_dict` and the campaign runner's
    merged-snapshot dump, so both produce the same JSON shape.
    """
    tree: Dict[str, object] = {}
    for name, entry in flat.items():
        node = tree
        parts = name.split(".")
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                # A leaf ("l1d") also has children ("l1d.hits"): keep the
                # leaf under the reserved key "_value".
                nxt = {"_value": nxt}
                node[part] = nxt
            node = nxt
        leaf = parts[-1]
        if isinstance(node.get(leaf), dict) and not isinstance(entry, dict):
            node[leaf]["_value"] = entry
        else:
            node[leaf] = entry
    return tree


class StatRegistry:
    """Flat store of dotted-name stats with hierarchical dump views."""

    def __init__(self) -> None:
        self._stats: Dict[str, Stat] = {}

    # -- creation / access --------------------------------------------------

    def _get_or_create(self, cls, name: str, desc: str) -> Stat:
        stat = self._stats.get(name)
        if stat is None:
            stat = cls(name, desc=desc)
            self._stats[name] = stat
            return stat
        if not isinstance(stat, cls):
            raise ConfigError(
                f"stat {name!r} already registered as {stat.kind}, not {cls.kind}"
            )
        if desc and not stat.desc:
            stat.desc = desc
        return stat

    def counter(self, name: str, desc: str = "") -> Counter:
        return self._get_or_create(Counter, name, desc)

    def gauge(self, name: str, desc: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, desc)

    def distribution(
        self, name: str, desc: str = "", reservoir: int = Distribution.DEFAULT_RESERVOIR
    ) -> Distribution:
        stat = self._stats.get(name)
        if stat is None:
            stat = Distribution(name, desc=desc, reservoir=reservoir)
            self._stats[name] = stat
        elif not isinstance(stat, Distribution):
            raise ConfigError(
                f"stat {name!r} already registered as {stat.kind}, not distribution"
            )
        return stat

    def formula(self, name: str, fn: Callable[[], Number], desc: str = "") -> Formula:
        """Register (or replace) a derived stat."""
        existing = self._stats.get(name)
        if existing is not None and not isinstance(existing, Formula):
            raise ConfigError(
                f"stat {name!r} already registered as {existing.kind}, not formula"
            )
        stat = Formula(name, fn, desc=desc)
        self._stats[name] = stat
        return stat

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def __len__(self) -> int:
        return len(self._stats)

    def get(self, name: str) -> Optional[Stat]:
        return self._stats.get(name)

    def __getitem__(self, name: str) -> Stat:
        try:
            return self._stats[name]
        except KeyError:
            raise ConfigError(f"no stat named {name!r}") from None

    def names(self, prefix: str = "") -> List[str]:
        """Sorted stat names, optionally restricted to a dotted ``prefix``."""
        if not prefix:
            return sorted(self._stats)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sorted(n for n in self._stats if n == prefix or n.startswith(dotted))

    def reset(self) -> None:
        """Reset counters/gauges/distributions (pull sources are kept)."""
        for stat in self._stats.values():
            stat.reset()

    # -- dumps --------------------------------------------------------------

    def snapshot(self, prefix: str = "") -> Dict[str, object]:
        """Flat ``{dotted name: dump value}`` of the (filtered) registry."""
        out: Dict[str, object] = {}
        for name in self.names(prefix):
            out[name] = self._stats[name].to_entry()
        return out

    def to_dict(self, prefix: str = "") -> Dict[str, object]:
        """Nested dict keyed by the dotted hierarchy (JSON-dump shape)."""
        return nest_dotted(self.snapshot(prefix))

    def kinds(self, prefix: str = "") -> Dict[str, str]:
        """``{dotted name: stat kind}`` for the (filtered) registry.

        The campaign runner ships this beside :meth:`snapshot` so the
        parent process knows how to merge each entry (counters sum,
        distributions pool moments, …).
        """
        return {name: self._stats[name].kind for name in self.names(prefix)}

    def dump_json(self, path: str, indent: int = 2, prefix: str = "") -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(prefix), fh, indent=indent, sort_keys=True)
            fh.write("\n")

    def dump_text(self, prefix: str = "") -> str:
        """gem5 ``stats.txt``-style listing: ``name  value  # desc``."""
        rows: List[tuple] = []
        for name in self.names(prefix):
            stat = self._stats[name]
            entry = stat.to_entry()
            if isinstance(entry, dict):
                for key, val in entry.items():
                    rows.append((f"{name}::{key}", val, stat.desc if key == "count" else ""))
            else:
                rows.append((name, entry, stat.desc))
        if not rows:
            return "(no stats registered)"
        width = max(len(r[0]) for r in rows)
        lines = []
        for name, val, desc in rows:
            if isinstance(val, float) and not val.is_integer():
                text = f"{val:.6f}"
            else:
                text = str(int(val)) if isinstance(val, float) else str(val)
            comment = f"  # {desc}" if desc else ""
            lines.append(f"{name:<{width}}  {text:>14}{comment}")
        return "\n".join(lines)
