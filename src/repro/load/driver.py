"""The load driver: synthetic clients injected at the kernel edge.

Forking 10^5 guest client processes would drown the measurement in
client-side scheduling events (and memory).  Instead the driver *is*
the client population: for each arrival in the trace it creates a real
kernel :class:`~repro.kernel.net.Socket`, queues it on the listener's
backlog (``Network.queue_connection`` — so refusals, resets, and
backlog bounds behave exactly as they do for guest clients), pushes the
16-byte request straight into the server-side endpoint
(``Network.push_bytes``), and then watches the client endpoint through
the readiness-watcher hook every sleeping ``select()`` and ``poll()``
uses (``Inode.watchers``, fired by ``Inode.mark_readable``).
The server under test cannot tell the difference: every byte it sees
arrived through the same socket objects, buffers, and wait channels.

Per-request deadlines are engine timers in virtual time.  Outcomes:

==========  =========================================================
``ok``      full ``OK:<rid>`` reply before the deadline
``busy``    explicit ``BUSY`` shed from the server (also a reply!)
``refused`` ``ECONNREFUSED`` at arrival (no listener / backlog full)
``timeout`` deadline expired with no complete reply
``reset``   connection reset under the request (RST)
``eof``     server hung up without any reply (clean close, no data)
==========  =========================================================

Everything lands in ``load.*`` metric families on the run's
:class:`~repro.obs.registry.MetricsRegistry` (suffixed with the
driver's label, normally the architecture name), including per-window
histograms that :meth:`LoadDriver.summary` turns into the saturation
knee.  Completion handling is deferred onto the engine queue
(``call_after(0, ...)``), never run inside another LWP's syscall —
same-timestamp events fire in insertion order, so runs stay
deterministic.
"""

from __future__ import annotations

import random
from functools import partial

from repro.errors import SyscallError
from repro.kernel.net import S_RESET
from repro.obs.registry import MetricKeys
from repro.sim.clock import usec
from repro.workloads.network_server import BUSY, PORT, REQUEST_SIZE

#: Outcome categories, in reporting order.
OUTCOMES = ("ok", "busy", "refused", "timeout", "reset", "eof")


def _rid(i: int) -> bytes:
    return f"l{i:09d}".encode().ljust(REQUEST_SIZE, b".")


class LoadDriver:
    """Drive one simulator with one arrival trace.

    Open-loop by default: arrivals fire on trace time regardless of
    completions.  Passing ``closed=(requests_per_client, think_usec)``
    switches to closed-loop — the trace provides each client's *first*
    arrival and every later request chases the previous completion.
    """

    def __init__(self, sim, trace, *, port: int = PORT,
                 deadline_usec: float = 50_000.0, label: str = "load",
                 windows: int = 10, closed: tuple = None):
        self.kernel = sim.kernel
        self.engine = sim.kernel.engine
        self.net = self.kernel.net
        self.metrics = sim.metrics
        if self.metrics is None:
            raise ValueError("LoadDriver needs Simulator(metrics=True)")
        self.trace = trace
        self.port = port
        self.deadline_ns = usec(deadline_usec)
        self.label = label
        self.windows = max(1, windows)
        self.closed = closed
        self._think_rng = random.Random(
            f"{trace.seed}/load/think") if closed else None
        self._total = (trace.clients * closed[0] if closed
                       else len(trace.arrivals_ns))
        self._next = 0           # next trace index to schedule
        self._injected = 0
        self._resolved = 0
        self._inflight: dict[int, dict] = {}
        self._closed_done: dict[int, int] = {}
        self.first_ns = None
        self.done_ns = None
        self.finished = False
        # Metric names, each built once: per outcome and window, the
        # outcome counter and the window's counter; per window, the
        # window's latency histogram.
        self._offered_key = f"load.offered.{label}"
        self._latency_key = f"load.latency_ns.{label}"
        self._outcome_keys = MetricKeys(
            lambda wo: (f"load.outcome.{wo[1]}.{label}",
                        f"load.w{wo[0]:02d}.{wo[1]}.{label}"))
        self._window_latency_keys = MetricKeys(
            lambda w: f"load.w{w:02d}.latency_ns.{label}")

    # ------------------------------------------------------- scheduling

    def start(self) -> None:
        """Arm the first arrival (call before ``sim.run()``)."""
        if not self.trace.arrivals_ns:
            self._finish()
            return
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self._next >= len(self.trace.arrivals_ns):
            return
        i = self._next
        self._next += 1
        t = max(self.trace.arrivals_ns[i], self.engine.now_ns)
        self.engine.call_at(t, partial(self._arrive, i),
                            tag="load-arrival")

    def _arrive(self, i: int) -> None:
        # Open loop: the next arrival is armed before this one is
        # served — trace time, not server speed, paces the offered load.
        self._schedule_next()
        client = i if self.closed else None
        self._inject(i, client)

    # -------------------------------------------------------- injection

    def _inject(self, rid_index: int, client) -> None:
        i = self._injected
        self._injected += 1
        now = self.engine.now_ns
        if self.first_ns is None:
            self.first_ns = now
        self.metrics.count(self._offered_key)
        w = self._window(i)
        payload = _rid(i)
        sock = self.net.create_socket(0)
        try:
            self.net.queue_connection(sock, self.port)
        except SyscallError:
            self._resolve(i, "refused", now, w, None, client)
            return
        self.net.push_bytes(sock.peer, payload)
        rec = {"sock": sock, "sent_ns": now, "window": w,
               "expected": b"OK:" + payload, "scheduled": False,
               "client": client, "timer": None}
        self._inflight[i] = rec

        def on_ready(_sock, i=i, rec=rec):
            if not rec["scheduled"]:
                rec["scheduled"] = True
                self.engine.call_after(0, partial(self._check, i),
                                       tag="load-complete")

        rec["watcher"] = on_ready
        sock.watchers.append(on_ready)
        rec["timer"] = self.engine.call_after(
            self.deadline_ns, partial(self._deadline, i),
            tag="load-deadline")
        if sock.readable():
            on_ready(sock)

    # ------------------------------------------------------- completion

    def _check(self, i: int) -> None:
        rec = self._inflight.get(i)
        if rec is None:
            return
        rec["scheduled"] = False
        sock = rec["sock"]
        data = bytes(sock.rbuf)
        if data.startswith(rec["expected"]):
            self._settle(i, rec, "ok")
        elif sock.state is S_RESET:
            self._settle(i, rec, "reset")
        elif not sock.peer_send_open():
            # Sender side is gone: whatever arrived is final.  An
            # explicit BUSY is an answer; anything else (nothing, or a
            # truncated reply) is a hangup without one.
            self._settle(i, rec, "busy" if data == BUSY else "eof")
        # else: partial reply, peer still live — the watcher stays
        # armed and the next readiness event re-checks.

    def _deadline(self, i: int) -> None:
        rec = self._inflight.get(i)
        if rec is None:
            return
        self._settle(i, rec, "timeout")

    def _settle(self, i: int, rec: dict, outcome: str) -> None:
        del self._inflight[i]
        sock = rec["sock"]
        if rec["timer"] is not None:
            self.engine.cancel(rec["timer"])
        try:
            sock.watchers.remove(rec["watcher"])
        except ValueError:
            pass
        # Drain before closing: a close with unread data would RST a
        # server that did nothing wrong.
        sock.rbuf.clear()
        self.net.close_socket(sock)
        self._resolve(i, outcome, rec["sent_ns"], rec["window"],
                      self.engine.now_ns, rec["client"])

    def _resolve(self, i: int, outcome: str, sent_ns: int, w: int,
                 done_ns, client) -> None:
        m = self.metrics
        total_key, window_key = self._outcome_keys[w, outcome]
        m.count(total_key)
        m.count(window_key)
        if outcome == "ok":
            lat = done_ns - sent_ns
            m.observe(self._latency_key, lat)
            m.observe(self._window_latency_keys[w], lat)
        self._resolved += 1
        self.done_ns = self.engine.now_ns
        if self.closed is not None and client is not None:
            self._next_closed(client)
        if self._resolved >= self._total and \
                self._next >= len(self.trace.arrivals_ns):
            self._finish()

    def _next_closed(self, client: int) -> None:
        per_client, think_usec = self.closed
        done = self._closed_done
        done[client] = done.get(client, 0) + 1
        if done[client] >= per_client:
            return
        jitter = 0.5 + self._think_rng.random()
        self.engine.call_after(
            usec(think_usec * jitter),
            lambda: self._inject(self._injected, client),
            tag="load-think")

    def _window(self, i: int) -> int:
        return min(self.windows - 1, i * self.windows // self._total)

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        # Retire the listener at the kernel edge: the server observes
        # ECONNABORTED/EINVAL (acceptors) or readable-and-closed (the
        # event loop), drains, and exits — no guest-side shutdown
        # channel needed.
        listener = self.net.ports.get(self.port)
        if listener is not None:
            self.net.close_socket(listener)

    # ---------------------------------------------------------- summary

    def summary(self) -> dict:
        """Deterministic result dict, straight out of the ``load.*``
        metric families (p999 via ``Histogram.percentile(99.9)``)."""
        m = self.metrics
        lbl = self.label
        outcomes = {o: self._count(f"load.outcome.{o}.{lbl}")
                    for o in OUTCOMES}
        hname = f"load.latency_ns.{lbl}"
        h = m.histograms.get(hname)
        if h is not None and h.count:
            latency = {"p50": h.percentile(50), "p99": h.percentile(99),
                       "p999": h.percentile(99.9), "max": h.max,
                       "mean_ns": round(h.mean, 3)}
        else:
            latency = {"p50": 0, "p99": 0, "p999": 0, "max": 0,
                       "mean_ns": 0.0}
        elapsed_ns = ((self.done_ns - self.first_ns)
                      if self.done_ns is not None
                      and self.first_ns is not None else 0)
        ok = outcomes["ok"]
        throughput = (ok / (elapsed_ns / 1e9)) if elapsed_ns else 0.0
        windows = []
        for w in range(self.windows):
            row = {o: self._count(f"load.w{w:02d}.{o}.{lbl}")
                   for o in OUTCOMES}
            wh = m.histograms.get(f"load.w{w:02d}.latency_ns.{lbl}")
            row["p99_ns"] = (wh.percentile(99)
                             if wh is not None and wh.count else 0)
            row["arrivals"] = sum(row[o] for o in OUTCOMES)
            windows.append(row)
        return {
            "offered": self._count(f"load.offered.{lbl}"),
            "outcomes": outcomes,
            "latency_ns": latency,
            "elapsed_usec": round(elapsed_ns / 1000.0, 3),
            "throughput_per_sec": round(throughput, 3),
            "saturation": {"knee_window": knee(windows),
                           "windows": windows},
        }

    def _count(self, name: str) -> int:
        c = self.metrics.counters.get(name)
        return c.value if c is not None else 0


def knee(windows: list[dict], miss_threshold: float = 0.1):
    """First window whose miss rate (everything except ``ok``/``busy``
    replies) crosses ``miss_threshold`` — the saturation knee.  ``busy``
    counts as a *served* answer: explicit shed is the server degrading
    gracefully, not the client-visible collapse the knee marks.  None
    when every window stays under the threshold."""
    for w, row in enumerate(windows):
        total = row.get("arrivals", 0)
        if not total:
            continue
        missed = sum(row.get(o, 0) for o in ("refused", "timeout",
                                             "reset", "eof"))
        if missed / total >= miss_threshold:
            return w
    return None
