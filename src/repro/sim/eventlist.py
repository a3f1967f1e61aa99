"""Deterministic discrete-event scheduler with a hybrid two-tier queue.

The :class:`EventList` is the single source of simulated time.  Network
elements never sleep or poll; they schedule callbacks at absolute
(picosecond) timestamps and the event list executes them in order.  Ties are
broken by insertion order, which keeps runs bit-for-bit reproducible for a
given seed.

Internally the scheduler keeps two tiers:

* a **timing wheel** of :data:`_WHEEL_SLOTS` buckets, each
  ``2**_WHEEL_SHIFT`` picoseconds wide, holding every event that falls
  within the wheel horizon (a few milliseconds — which covers
  serialization times, propagation delays, pull-pacer intervals and the
  NDP RTO).  Insertion into a future bucket is an O(1) ``list.append``;
* a conventional **far heap** for events beyond the horizon (watchdogs,
  experiment end markers).

The slot under the cursor is drained in batch: the bucket is sorted once
(C-speed timsort) and walked by index, so the common case costs no heap
sifting at all.  Events scheduled *into* the slot currently being drained
(e.g. a 64-byte control packet whose serialization time is shorter than one
slot) go to a small spill list that is merged on the fly.

All three structures store uniform **six-slot list** entries
``[when, seq, obj, gen, callback, arg]``, where ``seq`` is a global
insertion counter: merging the tiers by ``(when, seq)`` therefore reproduces
exactly the execution order of the original single-heap implementation.
Every insert builds a fresh entry and refcounting frees it once it has run;
entries are not recycled (a free list of them measured slower end to end,
see docs/architecture.md).

The ``obj``/``gen`` slots are overloaded by entry kind:

* **cancellable entries** (``obj`` is an :class:`Event` or :class:`Timer`)
  use ``gen`` as the generation stamp — a cancelled or re-armed entry is
  recognised by a generation mismatch and skipped.  When cancelled entries
  pile up, the scheduler eagerly evicts them (:meth:`EventList._compact`)
  instead of letting them linger until they surface.
* **raw entries** (``obj is None``) use ``gen`` as the *call arity*:
  ``0`` → ``callback()`` with ``arg`` unused, ``1`` → ``callback(arg)``
  with ``arg`` the single positional argument (a packet delivery carries
  the bare packet — no argument tuple exists at all),
  ``2`` → ``callback(*arg)`` with ``arg`` a tuple.

Hot-path producers (queues, pipes, pacers) use :meth:`EventList.schedule_raw`
/ :meth:`EventList.schedule_raw_in` (or call :meth:`EventList._insert`
directly from inside the ``sim``/``core`` packages), which enqueue a bare
callback without allocating an :class:`Event` handle; use the classic
:meth:`EventList.schedule` whenever the caller may need to cancel.

While a batch drains, :attr:`EventList._cur_pos` / :attr:`EventList._spill_pos`
are published *before every callback* and :attr:`EventList._ff_bound` folds
the cursor slot's end, the active ``until`` bound and the stopped flag into
one precomputed comparison.  Recurring-service callbacks (queue and
switch drains) use these to *fast-forward*: when the next completion of the
same service provably precedes every other pending event (strictly — a
timestamp tie always falls back to the scheduler, which preserves the
baseline tie order), the callback services it inline without scheduling at
all.  Such batched completions advance :attr:`EventList.events_executed`
so event counts stay comparable with the unbatched engine.

Watchdog-style timers (pull-retry, sender keepalive) are created with
``shadow=True``: they draw their tie-breaking sequence numbers from a
*shadow* counter starting at :data:`_SHADOW_SEQ_BASE` instead of the shared
insertion counter.  Arming, re-arming or cancelling a shadow timer therefore
cannot shift the ``(when, seq)`` order of any ordinary event — a liveness
mechanism that never fires leaves a seeded run bit-for-bit identical.  At a
timestamp tie a shadow entry always runs after every ordinary entry, which
is itself deterministic.

:meth:`EventList.run` disables the cyclic garbage collector for its
duration (restoring the caller's setting on exit): every event allocates a
scheduler entry and most allocate a packet, none of which form reference
cycles, so the allocation-count-triggered gen-0 collections would scan
millions of short-lived objects for nothing.  Refcounting still reclaims
everything the simulator drops.
"""

from __future__ import annotations

import gc as _gc
from bisect import insort as _insort
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional

#: log2 of the wheel slot width: 2**23 ps ~ 8.4 us per slot (tuned on the
#: benchmarks/perf scenarios: one slot comfortably covers an MTU
#: serialization time plus a propagation delay, so most inserts are O(1)
#: appends, cursor advances stay rare, and — crucially for the batched
#: drains — back-to-back jumbo completions (7.2 us apart at 10 Gbps) can
#: land in the *same* slot and fast-forward instead of re-entering the
#: scheduler.  Narrower slots were tried and lost: 4x the advance/sort
#: calls and 4x the far-heap traffic for no batching at all at 9 kB MTU)
_WHEEL_SHIFT = 23
#: number of wheel slots; with the shift above the horizon is ~8.6 ms
_WHEEL_SLOTS = 1024
_WHEEL_MASK = _WHEEL_SLOTS - 1

#: sentinel bound so the run loop avoids per-event ``is None`` tests (small
#: enough to stay a cheap machine-word-ish comparison, ~146 years of sim time)
_NO_LIMIT = 1 << 62

#: compaction trigger: evict eagerly once this many cancelled entries linger
_COMPACT_MIN_STALE = 64

#: absolute staleness backstop: long-lived armed entries (liveness watchdogs,
#: one per endpoint) inflate the live count that the ratio trigger below is
#: measured against, which can starve compaction exactly when tombstones pile
#: up fastest; past this many lingering tombstones we evict regardless
_COMPACT_MAX_STALE = 1536

#: first sequence number of the shadow space used by ``shadow=True`` timers.
#: Far above anything the ordinary insertion counter can reach (10^14 events
#: would take years of wall-clock), so the two spaces can never collide and a
#: shadow entry deterministically runs *after* every ordinary entry scheduled
#: for the same picosecond.
_SHADOW_SEQ_BASE = 1 << 48


def _fmt_args(args: tuple) -> str:
    """Render an argument tuple for the debug reprs.

    Anything whose repr raises degrades to a placeholder instead of
    poisoning the debugging aid.
    """
    parts = []
    for a in args:
        try:
            parts.append(repr(a))
        except Exception:  # pragma: no cover - repr bugs in user callbacks
            parts.append(f"<unprintable {type(a).__name__}>")
    return ", ".join(parts)


class Event:
    """A scheduled callback.

    Events are returned by :meth:`EventList.schedule` so callers can cancel
    them (for example a retransmission timer that is no longer needed).
    Cancellation is O(1); the scheduler evicts cancelled entries eagerly once
    enough of them accumulate.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_gen", "_eventlist")

    def __init__(
        self,
        time: int,
        callback: Callable[..., Any],
        args: tuple,
        eventlist: Optional["EventList"] = None,
    ):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._gen = 0
        self._eventlist = eventlist

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if it already ran)."""
        if self._gen == 0:  # still pending (execution bumps the generation)
            self.cancelled = True
            self._gen = 1
            if self._eventlist is not None:
                self._eventlist._note_stale()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else ("done" if self._gen else "pending")
        name = getattr(self.callback, "__name__", None) or repr(self.callback)
        return f"Event(t={self.time}, {name}({_fmt_args(self.args)}), {state})"


class Timer:
    """A reusable, cancellable one-shot timer.

    Unlike :class:`Event`, a timer is allocated once and re-armed many
    times — re-arming or cancelling never allocates and never leaves more
    than a generation-stamped tombstone behind (evicted eagerly by the
    scheduler).  This is the primitive behind the senders' RTO management:
    arming a retransmission timer per packet used to push one heap entry per
    packet that lingered until it surfaced; a :class:`Timer` per sequence
    number keeps exactly one live entry and cancels in O(1).

    Passing ``shadow=True`` makes the timer draw its tie-breaking sequence
    numbers from the event list's shadow counter (see the module docstring):
    arming or cancelling it cannot perturb the execution order of ordinary
    events, which is required of the liveness watchdogs (pull-retry, sender
    keepalive) so that a run in which they never fire stays bit-identical to
    a run without them.
    """

    __slots__ = ("eventlist", "callback", "args", "when", "_gen", "_armed_gen", "_shadow")

    def __init__(
        self,
        eventlist: "EventList",
        callback: Callable[..., Any],
        *args: Any,
        shadow: bool = False,
    ):
        self.eventlist = eventlist
        self.callback = callback
        self.args = args
        self.when = -1
        self._gen = 0
        self._armed_gen = -1
        self._shadow = shadow

    @property
    def armed(self) -> bool:
        """True while the timer is scheduled and has not fired or been cancelled."""
        return self._gen == self._armed_gen

    def schedule_at(self, when: int) -> None:
        """(Re-)arm the timer at absolute time *when*, superseding any prior arm."""
        eventlist = self.eventlist
        if when < eventlist._now:
            raise ValueError(
                f"cannot schedule timer at {when} ps: current time is {eventlist._now} ps"
            )
        if self._gen == self._armed_gen:
            eventlist._note_stale()  # the superseded entry is now dead weight
        self.when = when
        gen = self._gen = self._gen + 1
        self._armed_gen = gen
        # inlined EventList._insert (re-arming is once per retransmission);
        # shadow timers consume shadow sequence numbers so they cannot shift
        # the tie-breaking order of ordinary events
        if self._shadow:
            seq = eventlist._shadow_sequence = eventlist._shadow_sequence + 1
        else:
            seq = eventlist._sequence = eventlist._sequence + 1
        entry = [when, seq, self, gen, self.callback, self.args]
        delta = (when >> _WHEEL_SHIFT) - eventlist._cursor
        if delta <= 0:
            _insort(eventlist._cur_spill, entry)
            eventlist._wheel_count += 1
        elif delta < _WHEEL_SLOTS:
            eventlist._wheel[(when >> _WHEEL_SHIFT) & _WHEEL_MASK].append(entry)
            eventlist._wheel_count += 1
        else:
            _heappush(eventlist._far, entry)

    def schedule_in(self, delay: int) -> None:
        """(Re-)arm the timer *delay* picoseconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self.eventlist._now + delay)

    def cancel(self) -> None:
        """Disarm the timer (no-op if not armed)."""
        if self._gen == self._armed_gen:
            self._gen += 1
            self.eventlist._note_stale()

    def __repr__(self) -> str:
        state = f"armed@{self.when}" if self.armed else "idle"
        name = getattr(self.callback, "__name__", None) or repr(self.callback)
        return f"Timer({name}({_fmt_args(self.args)}), {state})"


#: entry layout shared by all tiers: ``[when, seq, obj, gen, callback, arg]``
#: (see the module docstring for the obj/gen overloading between cancellable
#: and raw entries)
_Entry = List[Any]


class EventList:
    """Two-tier priority queue of simulation events keyed by picoseconds."""

    __slots__ = (
        "_wheel",
        "_cursor",
        "_cur",
        "_cur_pos",
        "_cur_spill",
        "_spill_pos",
        "_far",
        "_wheel_count",
        "_now",
        "_sequence",
        "_shadow_sequence",
        "_stopped",
        "_stale",
        "_time_limit",
        "_ff_bound",
        "events_executed",
    )

    def __init__(self) -> None:
        self._wheel: List[List[_Entry]] = [[] for _ in range(_WHEEL_SLOTS)]
        self._cursor: int = 0  # wheel slot currently being drained
        self._cur: List[_Entry] = []  # sorted batch for the cursor slot
        self._cur_pos: int = 0
        # Entries landing in the slot currently being drained, kept as a
        # sorted list consumed by index: such inserts arrive in near-ascending
        # (when, seq) order, so insort is an O(1)-ish tail append and
        # consumption avoids heap sifting entirely.
        self._cur_spill: List[_Entry] = []
        self._spill_pos: int = 0
        self._far: List[_Entry] = []
        #: entries anywhere in the wheel tier (buckets + current batch + spill)
        self._wheel_count: int = 0
        self._now: int = 0
        self._sequence: int = 0
        self._shadow_sequence: int = _SHADOW_SEQ_BASE
        self._stopped: bool = False
        self._stale: int = 0
        #: active ``until`` bound of the running :meth:`run` call; consulted
        #: by fast-forwarding service callbacks so a batched completion never
        #: runs past the requested stop time
        self._time_limit: int = _NO_LIMIT
        #: fast-forward bound: a batched completion at ``when`` may run
        #: inline only if ``when < _ff_bound`` (and the drain frontiers
        #: agree).  Folds the cursor slot's end, the active ``until`` limit
        #: and the stopped flag into one precomputed comparison; maintained
        #: at :meth:`run` entry, in :meth:`_advance` and by :meth:`stop`.
        #: Zero while no run is active, so the guard can never pass.
        self._ff_bound: int = 0
        self.events_executed: int = 0

    def now(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now

    # --- insertion --------------------------------------------------------------

    def _insert(
        self,
        when: int,
        obj: Optional[object],
        gen: Any,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        """Route one entry to the correct tier (see the module docstring).

        Callers inside the simulator's hot paths may invoke this directly
        with ``obj=None, gen=0`` (the :meth:`schedule_raw` contract) after
        ensuring ``when >= now``; the argument tuple is unpacked into the
        arity encoding here.
        """
        seq = self._sequence = self._sequence + 1
        if obj is None:
            n = len(args)
            if n == 1:
                gen = 1
                arg: Any = args[0]
            elif n == 0:
                gen = 0
                arg = None
            else:
                gen = 2
                arg = args
        else:
            arg = args
        entry = [when, seq, obj, gen, callback, arg]
        delta = (when >> _WHEEL_SHIFT) - self._cursor
        if delta <= 0:
            # lands in the slot being drained: merge into the sorted spill
            _insort(self._cur_spill, entry)
            self._wheel_count += 1
        elif delta < _WHEEL_SLOTS:
            # future wheel slot: O(1) append, sorted lazily when drained
            self._wheel[(when >> _WHEEL_SHIFT) & _WHEEL_MASK].append(entry)
            self._wheel_count += 1
        else:
            _heappush(self._far, entry)

    def schedule(self, when: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule *callback(*args)* at absolute time *when* (picoseconds).

        Returns a cancellable :class:`Event` handle.  Scheduling in the past
        raises ``ValueError`` — that is always a bug in the caller, and
        silently clamping it would mask protocol errors.
        """
        if when < self._now:
            raise ValueError(
                f"cannot schedule event at {when} ps: current time is {self._now} ps"
            )
        event = Event(when, callback, args, self)
        self._insert(when, event, 0, callback, args)
        return event

    def schedule_in(self, delay: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule *callback(*args)* after *delay* picoseconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, callback, *args)

    def schedule_raw(self, when: int, callback: Callable[..., Any], args: tuple = ()) -> None:
        """Fast-path schedule: no :class:`Event` handle, not cancellable.

        Used by the per-packet hot paths (queue service completions, pipe
        deliveries, pacer ticks) where the callback always runs and the
        allocation of a handle per packet would be pure overhead.
        """
        if when < self._now:
            raise ValueError(
                f"cannot schedule event at {when} ps: current time is {self._now} ps"
            )
        self._insert(when, None, 0, callback, args)

    def schedule_raw_in(self, delay: int, callback: Callable[..., Any], args: tuple = ()) -> None:
        """Fast-path relative schedule (see :meth:`schedule_raw`)."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self._insert(self._now + delay, None, 0, callback, args)

    def new_timer(
        self, callback: Callable[..., Any], *args: Any, shadow: bool = False
    ) -> Timer:
        """Create a reusable :class:`Timer` bound to this event list.

        ``shadow=True`` yields a watchdog timer whose (re-)arming draws from
        the shadow sequence space and therefore cannot perturb the order of
        ordinary events (see the module docstring).
        """
        return Timer(self, callback, *args, shadow=shadow)

    # --- cancellation bookkeeping --------------------------------------------------

    def _note_stale(self) -> None:
        """Record one newly dead entry; eagerly evict once they dominate."""
        stale = self._stale = self._stale + 1
        if stale > _COMPACT_MIN_STALE and (
            stale * 2 > self._wheel_count + len(self._far) or stale > _COMPACT_MAX_STALE
        ):
            self._compact()

    def _compact(self) -> None:
        """Eagerly evict cancelled/superseded entries from the lingering tiers.

        Only the future wheel buckets and the far heap are filtered: entries
        in the slot currently being drained are gone within one slot width of
        simulated time anyway, and skipping them lets the run loop keep plain
        local views of its batch.
        """
        wheel_removed = 0
        for bucket in self._wheel:
            if not bucket:
                continue
            kept = [e for e in bucket if e[2] is None or e[2]._gen == e[3]]
            if len(kept) != len(bucket):
                wheel_removed += len(bucket) - len(kept)
                bucket[:] = kept
        kept = [e for e in self._far if e[2] is None or e[2]._gen == e[3]]
        if len(kept) != len(self._far):
            _heapify(kept)
            self._far = kept
        self._wheel_count -= wheel_removed
        self._stale = 0

    # --- run loop ------------------------------------------------------------------

    def stop(self) -> None:
        """Stop the run loop after the currently executing event returns."""
        self._stopped = True
        self._ff_bound = 0  # no further fast-forwards either

    def pending_events(self) -> int:
        """Number of events still queued (cancelled entries may be counted
        until they are evicted)."""
        return self._wheel_count + len(self._far)

    def _advance(self) -> bool:
        """Move the cursor to the next slot holding entries and sort its batch.

        Only called when the current batch and spill are exhausted.  Returns
        False when no events remain anywhere.
        """
        if self._cur_spill:
            self._cur_spill.clear()  # fully consumed; drop the dead prefix
        self._spill_pos = 0
        far = self._far
        if self._wheel_count == 0:
            if not far:
                self._cur = []
                self._cur_pos = 0
                return False
            self._cursor = far[0][0] >> _WHEEL_SHIFT
        else:
            cursor = self._cursor
            wheel = self._wheel
            limit = cursor + _WHEEL_SLOTS
            if far:
                far_slot = far[0][0] >> _WHEEL_SHIFT
                if far_slot < limit:
                    limit = far_slot
            slot = cursor + 1
            while slot < limit and not wheel[slot & _WHEEL_MASK]:
                slot += 1
            self._cursor = slot
        index = self._cursor & _WHEEL_MASK
        batch = self._wheel[index]
        self._wheel[index] = []
        slot_end = (self._cursor + 1) << _WHEEL_SHIFT
        limit = self._time_limit
        self._ff_bound = slot_end if slot_end <= limit else limit + 1
        while far and far[0][0] < slot_end:
            batch.append(_heappop(far))
            self._wheel_count += 1
        batch.sort()
        self._cur = batch
        self._cur_pos = 0
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Execute events in time order.

        Parameters
        ----------
        until:
            Optional absolute timestamp (picoseconds).  Events scheduled
            strictly after this time are left in the queue and the clock is
            advanced to *until* when the run completes.
        max_events:
            Optional safety limit on the number of callbacks *dispatched by
            the scheduler*.  Completions fast-forwarded inside a recurring
            service callback count toward :attr:`events_executed` but not
            toward this limit (they never re-enter the scheduler).

        Returns
        -------
        int
            The simulated time at which the run stopped.
        """
        self._stopped = False
        time_limit = _NO_LIMIT if until is None else until
        self._time_limit = time_limit
        # fast-forward bound for the (possibly resumed) cursor slot; kept
        # current by _advance afterwards
        slot_end = (self._cursor + 1) << _WHEEL_SHIFT
        self._ff_bound = slot_end if slot_end <= time_limit else time_limit + 1
        budget = _NO_LIMIT if max_events is None else max_events
        executed = 0
        counted = 0  # scheduler dispatches already added to events_executed
        base_executed = self.events_executed  # fast-forwards add here directly
        spill = self._cur_spill
        done = False
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        try:
            while not done:
                cur = self._cur
                pos = self._cur_pos
                size = len(cur)
                spos = self._spill_pos
                if pos >= size and spos >= len(spill):
                    if not self._advance():
                        break
                    cur = self._cur
                    pos = 0
                    size = len(cur)
                    spos = 0
                    if pos >= size and not spill:  # pragma: no cover - defensive
                        break
                try:
                    while True:
                        # peek at the earliest of (sorted batch, sorted spill)
                        if pos < size:
                            entry = cur[pos]
                            if spos < len(spill) and spill[spos] < entry:
                                entry = spill[spos]
                                spos += 1
                            else:
                                pos += 1
                        elif spos < len(spill):
                            entry = spill[spos]
                            spos += 1
                        else:
                            break  # slot exhausted: advance to the next one
                        # single unpack beats five subscripts on the hot path
                        when, _seq, obj, gen, callback, arg = entry
                        if when > time_limit:
                            # not consumed after all: step back where it came from
                            if pos and entry is cur[pos - 1]:
                                pos -= 1
                            else:
                                spos -= 1
                            done = True
                            break
                        self._wheel_count -= 1
                        if obj is not None:
                            if obj._gen != gen:
                                if self._stale:
                                    self._stale -= 1
                                continue  # cancelled or superseded: dropped here
                            obj._gen = gen + 1
                            self._now = when
                            # publish drain positions so service callbacks can
                            # fast-forward against the true pending frontier
                            self._cur_pos = pos
                            self._spill_pos = spos
                            if arg:
                                callback(*arg)
                            else:
                                callback()
                        else:
                            self._now = when
                            self._cur_pos = pos
                            self._spill_pos = spos
                            if gen == 1:
                                callback(arg)
                            elif gen == 0:
                                callback()
                            else:
                                callback(*arg)
                        executed += 1
                        if self._stopped or executed >= budget:
                            done = True
                            break
                finally:
                    # publish the drain positions and the executed count once
                    # per batch (zero-cost unless an exception unwinds
                    # mid-slot, where it prevents replays and keeps the count
                    # accurate)
                    self._cur_pos = pos
                    self._spill_pos = spos
                    base_executed = self.events_executed  # may have grown via fast-forward
                    self.events_executed = base_executed + (executed - counted)
                    counted = executed
        finally:
            self._ff_bound = 0  # fast-forwards are only legal mid-run
            if gc_was_enabled:
                _gc.enable()
        if until is not None and not self._stopped and self._now < until:
            self._now = until
        return self._now

    def run_until(self, when: int, max_events: Optional[int] = None) -> int:
        """Batch-execute every event up to and including *when* (see :meth:`run`)."""
        return self.run(until=when, max_events=max_events)
