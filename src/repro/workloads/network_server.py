"""The network-server workload, on real (simulated) sockets.

"A network server may indirectly need its own service (and therefore
another thread of control) to handle requests."  Clients connect to the
server's listening socket (one connection per request attempt), send a
fixed-size request, and wait for the response.  The server offers three
architectures:

* ``mode="pool"`` (default): a bound-LWP worker pool behind a bounded
  admission queue.  The acceptor reads each request and either admits
  it, sheds the *oldest* queued request to make room (``shed="oldest"``)
  or refuses the newcomer with a ``BUSY`` response
  (``shed="reject-newest"``) — the degradation ladder's last rung, and
  always an *explicit* rejection the client can act on.
* ``mode="thread-per-conn"``: the paper's flagship — an unbound,
  detached thread per connection, LWP pool growing via SIGWAITING as
  handlers block in the kernel, with admission as a cap on concurrent
  handlers.
* ``mode="event-loop"``: the architecture the paper argues *against* —
  a single LWP multiplexing every descriptor through ``select()`` on a
  nonblocking listener, serving each request inline (see
  :func:`_event_loop`).  No locks and no handoff, but one slow request
  head-of-line-blocks every other ready descriptor.

One server core (:func:`_program`) implements all three.  Its only
client-side input is an optional guest client function.
:func:`build` passes one: the core forks that many client processes
(deadlines and seeded-jitter backoff from :mod:`repro.threads.retry`),
reaps them and retires its own listener — the self-contained form the
regression corpus, the overload and chaos gates and the examples run.
:func:`build_server` passes none: the server serves whatever arrives on
its port until the open-loop load generator in :mod:`repro.load`, which
injects 10^5–10^6 clients at the kernel edge, retires the listener.

Every admitted request is accounted for on a ledger
(:func:`repro.sync.events.sync_event` ops ``net-admit`` /
``net-serve`` / ``net-shed``), which the explorer's lost-request
detector audits: admitted exactly once implies served exactly once or
explicitly shed — under overload, faults, and adversarial schedules.

``build(supervise=True)`` puts the pool workers under a
:class:`~repro.threads.supervisor.Supervisor`: a worker that dies with
its LWP (a ``CrashStorm``, a watchdog kill) is respawned on backoff,
and its in-flight request — tracked in a plain dict the crash-reclaim
walk can read — is handed to the replacement as its first work item, so
the ledger stays exactly-once through crash storms.  Pool workers are
always named ``worker-<i>`` so crash-storm fault plans can target them.
The admission mutex is treated as robust everywhere: any acquire that
returns ``EOWNERDEAD`` repairs with ``consistent()`` (the queue deque is
only mutated between yields, so it is always structurally sound).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.errors import Errno, SyscallError
from repro.hw.isa import GetContext
from repro.kernel.fs.file import O_CREAT, O_NONBLOCK, O_RDWR
from repro.runtime import libc, unistd
from repro.sync import CondVar, Mutex
from repro.sync.events import sync_event
from repro.threads import api as threads
from repro.threads import retry

REQUEST_SIZE = 16
PORT = 7000
BUSY = b"BUSY"


def _payload(cid: int, req: int, attempt: int) -> bytes:
    """One request id: unique per (client, request, attempt) so the
    ledger can hold every attempt to exactly-once accounting."""
    return f"c{cid:02d}r{req:04d}a{attempt:02d}".encode().ljust(
        REQUEST_SIZE, b".")


def _note(op: str, rid: str, **detail):
    """Generator: emit one ledger event (free when nobody listens)."""
    ctx = yield GetContext()
    sync_event(ctx, op, None, id=rid, **detail)


# ---------------------------------------------------------------------
# Server plumbing: every architecture reads, serves, sheds, and closes
# the same way.
# ---------------------------------------------------------------------

def _enter_robust(m):
    """Generator: ``m.enter()`` that absorbs owner death.  The data
    the admission mutex protects (a deque and counters) is only ever
    mutated between yields, so a lock inherited from a crashed
    holder is always structurally consistent — repair and go."""
    if (yield from m.enter()):
        m.consistent()


def _close_quiet(fd: int):
    """Generator: close that tolerates an already-dead fd (a crashed
    worker's replacement may re-close what the victim closed)."""
    try:
        yield from unistd.close(fd)
    except SyscallError:
        pass


def _reject(conn: int, rid: str, reason: str, stats: dict):
    """Explicitly shed one request: tell the client, close, ledger."""
    stats["shed"] += 1
    try:
        yield from unistd.send(conn, BUSY)
    except SyscallError:
        pass  # client already gone; the shed is still explicit
    yield from _close_quiet(conn)
    yield from _note("net-shed", rid, reason=reason)
    ctx = yield GetContext()
    m = ctx.engine.metrics
    if m is not None:
        m.count("server.shed")


def _read_request(conn: int):
    """Read one fixed-size request; None on EOF/reset/timeout."""
    data = b""
    while len(data) < REQUEST_SIZE:
        try:
            chunk = yield from retry.recv_with_deadline(
                conn, REQUEST_SIZE - len(data), 50_000.0)
        except SyscallError:
            return None
        if not chunk:
            return None
        data += chunk
    return data


def _serve(conn: int, rid: str, enq_ns: int, datafd: int, stats: dict,
           service_compute_usec: float):
    """The service: read the "database", compute, respond."""
    yield from unistd.lseek(datafd, 0)
    yield from unistd.read(datafd, 512)
    yield from libc.compute(service_compute_usec)
    ok = True
    try:
        yield from unistd.send(conn, b"OK:" + rid.encode())
    except SyscallError:
        ok = False  # client gave up first; served all the same
    yield from _close_quiet(conn)
    now = yield from unistd.gettimeofday()
    stats["served"] += 1
    stats["latency_ns"] += now - enq_ns
    yield from _note("net-serve", rid, ok=ok)
    ctx = yield GetContext()
    m = ctx.engine.metrics
    if m is not None:
        m.count("server.served")
        m.sample("server.latency_usec", (now - enq_ns) // 1000)


def _event_loop(lfd: int, datafd: int, stats: dict,
                service_compute_usec: float):
    """The third architecture: a single-LWP event loop.

    One thread multiplexes every descriptor through ``select()`` over
    the nonblocking listener: drain the backlog, read whatever arrived
    (partial requests are buffered per connection), and serve each
    complete request to completion *inline* — no handoff, no second
    thread, no locks.  That inline service is the architecture's
    signature and its weakness: while one request computes, every other
    ready descriptor waits (head-of-line blocking), which is exactly
    the knee the bakeoff measures under burst arrivals.

    The loop exits when the listener is retired (``close``d by the
    reaper thread once the guest clients are done, or by the load
    driver at the kernel edge) and the surviving connections have
    drained.
    """
    conns: dict[int, bytes] = {}
    listening = True
    # EMFILE backpressure: when the fd table fills, park the listener
    # (stop select()ing it) until serving or hangups release a slot —
    # connections wait in the backlog instead of killing the loop.
    parked = False
    while listening or conns:
        if parked and not conns:
            parked = False  # nothing left to drain; retry the accept
        watch = ([lfd] if listening and not parked else []) \
            + sorted(conns)
        try:
            ready = yield from unistd.select(watch)
        except SyscallError as err:
            if err.errno in (Errno.EBADF, Errno.EINTR):
                if err.errno == Errno.EBADF:
                    listening = False  # listener fd retired under us
                continue
            raise
        for fd in ready:
            if fd == lfd and listening:
                # Bounded drain: under a steady arrival stream the
                # backlog refills as fast as it empties, and an
                # unbounded accept loop would starve every admitted
                # connection (accept-biased head-of-line blocking).
                for _burst in range(32):
                    try:
                        conn = yield from unistd.accept(lfd)
                    except SyscallError as err:
                        if err.errno == Errno.EAGAIN:
                            break  # backlog drained
                        if err.errno in (Errno.EINVAL, Errno.EBADF,
                                         Errno.ECONNABORTED,
                                         Errno.EINTR):
                            listening = False
                            break
                        if err.errno in (Errno.EMFILE, Errno.ENFILE):
                            parked = True
                            break
                        raise
                    m = (yield GetContext()).engine.metrics
                    if m is not None:
                        m.count("server.accepts")
                    conns[conn] = b""
                continue
            buf = conns.get(fd)
            if buf is None:
                continue
            # Readiness-gated: select() said readable, and nothing else
            # drains this buffer, so the recv returns data, EOF, or an
            # error without blocking.
            try:
                chunk = yield from unistd.recv(  # lint: allow=L902
                    fd, REQUEST_SIZE - len(buf))
            except SyscallError:
                del conns[fd]
                yield from _close_quiet(fd)
                parked = False
                continue
            if not chunk:
                del conns[fd]
                yield from _close_quiet(fd)
                parked = False
                continue
            buf += chunk
            if len(buf) < REQUEST_SIZE:
                conns[fd] = buf
                continue
            del conns[fd]
            rid = buf.decode()
            now = yield from unistd.gettimeofday()
            stats["admitted"] += 1
            yield from _note("net-admit", rid, mode="event-loop")
            yield from _serve(fd, rid, now, datafd, stats,
                              service_compute_usec)
            parked = False  # _serve closed the conn: a slot is free


def _fill_results(results: dict, stats: dict, start: int, end: int,
                  ctx) -> None:
    """Common end-of-run accounting for every architecture."""
    results["received"] = stats["admitted"]
    results["served"] = stats["served"]
    results["shed"] = stats["shed"]
    results["client_ok"] = stats["client_ok"]
    results["client_giveups"] = stats["client_giveups"]
    results["client_retries"] = stats["client_retries"]
    results["backlog_drops"] = ctx.kernel.net.backlog_drops
    results["resets"] = ctx.kernel.net.resets
    results["elapsed_usec"] = (end - start) / 1000.0
    results["avg_latency_usec"] = (
        stats["latency_ns"] / stats["served"] / 1000.0
        if stats["served"] else 0.0)
    results["throughput_per_sec"] = (
        stats["served"] / (results["elapsed_usec"] / 1e6)
        if results["elapsed_usec"] else 0.0)
    results["pool_lwps"] = len(ctx.process.threadlib.pool_lwps)
    results["lwps_grown"] = (
        ctx.process.threadlib.lwps_grown_by_sigwaiting)


def _program(*, mode: str, n_workers: int, service_compute_usec: float,
             backlog: int, admission_limit: int, shed: str, port: int,
             client: Callable | None = None, n_clients: int = 0,
             supervise: bool = False, max_restarts: int = 6,
             heartbeat_timeout_usec=None,
             crash_storm=None) -> tuple[Callable, dict]:
    """The server core behind :func:`build` and :func:`build_server`.

    ``client`` is what tells the two builders apart.  When given — a
    guest generator function ``client(client_id, stats)`` — the core
    forks ``n_clients`` client processes once the server is up, reaps
    them, and then retires its own listener (from a reaper thread under
    the event loop, whose one thread is busy serving).  Without it, the
    run starts as soon as the listener is up and ends when someone else
    retires the listener.  Either way the acceptor (or the event loop)
    sees the listener go, and every architecture drains in-flight work
    before the results dict is filled.  The supervision and crash-storm
    settings are :func:`build`'s alone.
    """
    if mode not in ("pool", "thread-per-conn", "event-loop"):
        raise ValueError(f"unknown mode {mode!r}")
    if shed not in ("reject-newest", "oldest"):
        raise ValueError(f"unknown shed policy {shed!r}")
    if supervise and mode != "pool":
        raise ValueError("supervise=True requires mode='pool'")
    results: dict = {}
    stats = {"admitted": 0, "served": 0, "shed": 0, "latency_ns": 0,
             "client_ok": 0, "client_giveups": 0, "client_retries": 0}

    def main():
        # A server that writes to clients that may hang up must not die
        # on the first disappointment.
        from repro.kernel.signals import SIG_IGN, Sig
        yield from unistd.sigaction(int(Sig.SIGPIPE), SIG_IGN)
        if crash_storm is not None:
            # Self-contained chaos: the program carries its own storm
            # (the regression-corpus form).  An externally attached plan
            # wins — explore passes faults through the run config.
            ctx = yield GetContext()
            if ctx.kernel.faults is None:
                from repro.sim.faults import CrashStorm, FaultPlan
                FaultPlan([CrashStorm(**crash_storm)]).attach(ctx.kernel)
        datafd = yield from unistd.open("/tmp/server.data",
                                        O_CREAT | O_RDWR)
        yield from unistd.write(datafd, b"x" * 4096)
        # The event loop accept-drains on readiness, so its listener
        # must be nonblocking.
        lfd = yield from unistd.socket(
            O_NONBLOCK if mode == "event-loop" else 0)
        yield from unistd.bind(lfd, port)
        yield from unistd.listen(lfd, backlog)
        # The goldens pin where the run's start is stamped: right after
        # listen() without guest clients, else just before the first
        # fork (fork_clients).
        if client is None:
            start = yield from unistd.gettimeofday()

        def fork_clients():
            """Generator: stamp the start, fork the guest clients;
            returns ``(start, pids)``."""
            t0 = yield from unistd.gettimeofday()
            pids = []
            for c in range(n_clients):
                pids.append((yield from unistd.fork1(client, c, stats)))
            return t0, pids

        def reap(pids):
            """Generator: join the clients, then retire the listener —
            what tells the acceptor or the event loop to drain."""
            for pid in pids:
                yield from unistd.waitpid(pid)
            yield from _close_quiet(lfd)

        if mode == "event-loop":
            # Single-LWP server: the main thread *is* the event loop, so
            # the clients are reaped by a thread on its own LWP.
            if client is not None:
                start, pids = yield from fork_clients()
                reaper_tid = yield from threads.thread_create(
                    reap, pids,
                    flags=threads.THREAD_WAIT | threads.THREAD_NEW_LWP)
            yield from _event_loop(lfd, datafd, stats,
                                   service_compute_usec)
            if client is not None:
                yield from threads.thread_wait(reaper_tid)
            end = yield from unistd.gettimeofday()
            yield from unistd.close(datafd)
            _fill_results(results, stats, start, end,
                          (yield GetContext()))
            return

        # Admission queue feeding the worker pool (pool mode).
        queue: deque = deque()
        qmutex = Mutex(name="srv.qm")
        qcv = CondVar(name="srv.qcv")
        # Thread-per-conn: the concurrent-handler cap, and the drain's
        # spawned == finished count.  Handlers are detached because
        # joining 10^5 of them at drain time would keep every finished
        # handler alive as a zombie for the whole run.
        active = {"handlers": 0, "spawned": 0, "finished": 0}
        # Crash containment (supervised mode): worker-name → in-flight
        # item.  Written in the same atomic block as the queue pop, so
        # from admission to disposal every request is reachable either
        # from the queue or from this dict — that invariant is what the
        # crash-recovery handover and the end-of-run sweep rely on.
        sup = None
        wspecs: dict = {}
        inflight: dict = {}

        def worker(item):
            """Pool worker: serve from the queue until poisoned.  Under
            supervision ``item`` is the crashed predecessor's in-flight
            request (served first), and the current one is tracked in
            ``inflight``."""
            me = (yield GetContext()).thread if sup is not None else None
            while True:
                if item is None:
                    yield from _enter_robust(qmutex)
                    while not queue:
                        if (yield from qcv.wait(qmutex)):
                            qmutex.consistent()
                    item = queue.popleft()
                    if me is not None and item is not None:
                        inflight[me.name] = item
                    yield from qmutex.exit()
                    if item is None:
                        return  # poison: graceful drain
                elif me is not None:
                    inflight[me.name] = item
                if me is not None:
                    sup.heartbeat(wspecs[me.name])
                conn, rid, enq_ns = item
                yield from _serve(conn, rid, enq_ns, datafd, stats,
                                  service_compute_usec)
                if me is not None:
                    inflight.pop(me.name, None)
                item = None

        def handler(conn):
            """Thread-per-conn: one detached thread per connection."""
            rid_raw = yield from _read_request(conn)
            if rid_raw is not None:
                rid = rid_raw.decode()
                yield from _enter_robust(qmutex)
                over = active["handlers"] >= admission_limit
                if not over:
                    active["handlers"] += 1
                yield from qmutex.exit()
                if over:
                    yield from _reject(conn, rid, "handler-cap", stats)
                else:
                    now = yield from unistd.gettimeofday()
                    stats["admitted"] += 1
                    yield from _note("net-admit", rid, mode=mode)
                    yield from _serve(conn, rid, now, datafd, stats,
                                      service_compute_usec)
                    yield from _enter_robust(qmutex)
                    active["handlers"] -= 1
                    yield from qmutex.exit()
            else:
                yield from _close_quiet(conn)
            yield from _enter_robust(qmutex)
            active["finished"] += 1
            yield from qcv.broadcast()
            yield from qmutex.exit()

        def acceptor(_):
            while True:
                try:
                    conn = yield from unistd.accept(lfd)
                except SyscallError as err:
                    if err.errno == Errno.EINTR:
                        continue  # a sibling LWP forked a client
                    if err.errno in (Errno.ECONNABORTED, Errno.EBADF,
                                     Errno.EINVAL):
                        break  # listener retired: drain and exit
                    if err.errno in (Errno.EMFILE, Errno.ENFILE):
                        # fd table full: let in-flight handlers close
                        # their conns, then drain the backlog.
                        yield from unistd.sleep_usec(500.0)
                        continue
                    raise
                m = (yield GetContext()).engine.metrics
                if m is not None:
                    m.count("server.accepts")
                if mode == "thread-per-conn":
                    active["spawned"] += 1
                    yield from threads.thread_create(handler, conn)
                    continue
                rid_raw = yield from _read_request(conn)
                if rid_raw is None:
                    yield from _close_quiet(conn)
                    continue
                rid = rid_raw.decode()
                now = yield from unistd.gettimeofday()
                yield from _enter_robust(qmutex)
                full = len(queue) >= admission_limit
                if full and shed == "reject-newest":
                    yield from qmutex.exit()
                    yield from _reject(conn, rid, "reject-newest", stats)
                    continue
                # Shed-oldest makes room by revoking the queue's head.
                # The admit ledger event goes out *before* the request
                # becomes visible to workers (still under the queue
                # mutex), so no schedule can serve an unadmitted id.
                old = queue.popleft() if full else None
                stats["admitted"] += 1
                yield from _note("net-admit", rid, mode=mode)
                queue.append((conn, rid, now))
                yield from qcv.signal()
                yield from qmutex.exit()
                if old is not None:
                    yield from _reject(old[0], old[1], "shed-oldest", stats)

        workers: list = []
        if mode == "pool":
            if supervise:
                from repro.threads.supervisor import Supervisor

                def handover_arg(spec, dead):
                    # Kernel context (crash time): pull the victim's
                    # in-flight request; the replacement serves it first.
                    return inflight.pop(spec.name, None)

                sup = Supervisor(
                    max_restarts=max_restarts, restart_arg=handover_arg,
                    heartbeat_timeout_usec=heartbeat_timeout_usec,
                    name="srv-sup")
            else:
                lib = (yield GetContext()).process.threadlib
            flags = threads.THREAD_WAIT | threads.THREAD_NEW_LWP
            for i in range(n_workers):
                name = f"worker-{i}"
                if sup is not None:
                    wspecs[name] = yield from sup.spawn(
                        worker, None, name=name, flags=flags)
                else:
                    tid = yield from threads.thread_create(
                        worker, None, flags=flags)
                    workers.append(tid)
                    lib.threads[tid].name = name
        else:
            # Thread-per-connection: handlers are unbound, so give the
            # pool enough LWPs up front (the paper's
            # thread_setconcurrency hint); SIGWAITING still grows it
            # when every one of these blocks in the kernel at once.
            yield from threads.thread_setconcurrency(n_workers + 1)
        acceptor_tid = yield from threads.thread_create(
            acceptor, None,
            flags=threads.THREAD_WAIT | threads.THREAD_NEW_LWP)
        if client is not None:
            start, pids = yield from fork_clients()
            yield from reap(pids)
        yield from threads.thread_wait(acceptor_tid)

        # The listener is gone and the acceptor with it: drain.  Queued,
        # already-admitted requests are served before the poison — FIFO
        # order guarantees no admitted request is ever dropped.
        if sup is not None:
            # Stop restarts *first*, then poison exactly the children
            # still alive.  A crash from here on stays dead.
            sup.drain()
        yield from _enter_robust(qmutex)
        if mode == "thread-per-conn":
            while active["finished"] < active["spawned"]:
                if (yield from qcv.wait(qmutex)):
                    qmutex.consistent()
        else:
            if sup is not None:
                workers = sup.live_children
            queue.extend([None] * len(workers))
            yield from qcv.broadcast()
        yield from qmutex.exit()
        for w in workers:
            if sup is None:
                yield from threads.thread_wait(w)
            elif w.thread is not None:
                yield from threads.thread_wait(w.thread.thread_id)
        if sup is not None:
            # Requests the supervisor could not recover — a give-up, or
            # a crash whose restart this drain pre-empted — are shed
            # explicitly so the ledger still balances.
            for wname in sorted(inflight):
                conn, rid, _enq = inflight.pop(wname)
                yield from _reject(conn, rid, "crash-unrecovered", stats)
        end = yield from unistd.gettimeofday()
        yield from unistd.close(datafd)
        _fill_results(results, stats, start, end, (yield GetContext()))
        if sup is not None:
            results["worker_restarts"] = sum(
                s.restarts for s in sup.children)
            results["worker_give_ups"] = sum(
                1 for s in sup.children if s.gave_up)

    return main, results


def build(n_clients: int = 3, requests_per_client: int = 10,
          n_workers: int = 4,
          service_compute_usec: float = 300.0,
          client_think_usec: float = 1_000.0,
          mode: str = "pool",
          backlog: int = 8,
          admission_limit: int = 32,
          shed: str = "reject-newest",
          client_attempts: int = 8,
          reply_deadline_usec: float = 200_000.0,
          port: int = PORT,
          supervise: bool = False,
          max_restarts: int = 6,
          heartbeat_timeout_usec=None,
          crash_storm=None) -> tuple[Callable, dict]:
    """Build the server program (it forks its own client processes).

    ``supervise`` runs pool workers under a Supervisor (see module
    docstring).  ``crash_storm``, when given, is a dict of
    :class:`~repro.sim.faults.CrashStorm` kwargs the program attaches to
    its own kernel at startup (unless a fault plan is already attached)
    — the self-contained form the regression corpus uses.
    """

    def client(client_id: int, stats: dict):
        policy = retry.RetryPolicy(
            attempts=client_attempts, base_usec=300.0, factor=2.0,
            max_delay_usec=10_000.0,
            retry_on={Errno.ECONNREFUSED, Errno.ETIMEDOUT,
                      Errno.ECONNRESET, Errno.EAGAIN, Errno.EINTR})
        from repro.kernel.signals import SIG_IGN, Sig
        yield from unistd.sigaction(int(Sig.SIGPIPE), SIG_IGN)
        ctx = yield GetContext()
        rng = ctx.engine.rng.stream(f"netclient/{client_id}")
        for req in range(requests_per_client):
            yield from unistd.sleep_usec(client_think_usec)
            for attempt in range(client_attempts):
                if attempt:
                    stats["client_retries"] += 1
                    yield from unistd.sleep_usec(
                        policy.delay_usec(attempt, rng))
                fd = yield from unistd.socket()
                resp = None
                try:
                    yield from unistd.connect(fd, port)
                    yield from unistd.send(
                        fd, _payload(client_id, req, attempt))
                    resp = yield from retry.recv_with_deadline(
                        fd, 64, reply_deadline_usec)
                except SyscallError as err:
                    if err.errno not in policy.retry_on and \
                            err.errno != Errno.EPIPE:
                        raise
                finally:
                    yield from unistd.close(fd)
                # Strict match on the echoed request id: a reply for a
                # *different* request (conceivable only when a crashed
                # worker's replacement re-serves onto a reused fd) must
                # not count as this request's success.
                if resp == b"OK:" + _payload(client_id, req, attempt):
                    stats["client_ok"] += 1
                    break
                # BUSY, EOF, reset, refused, or timed out: try again.
            else:
                stats["client_giveups"] += 1

    return _program(mode=mode, n_workers=n_workers,
                    service_compute_usec=service_compute_usec,
                    backlog=backlog, admission_limit=admission_limit,
                    shed=shed, port=port, client=client,
                    n_clients=n_clients, supervise=supervise,
                    max_restarts=max_restarts,
                    heartbeat_timeout_usec=heartbeat_timeout_usec,
                    crash_storm=crash_storm)


def build_server(mode: str = "pool", n_workers: int = 4,
                 service_compute_usec: float = 200.0,
                 backlog: int = 64,
                 admission_limit: int = 64,
                 shed: str = "reject-newest",
                 port: int = PORT) -> tuple[Callable, dict]:
    """The server half only — the core with no guest client processes.

    This is the entry the open-loop load generator (:mod:`repro.load`)
    drives: synthetic clients are injected at the kernel edge, so the
    program is just the chosen architecture serving whatever arrives on
    ``port``, and its run starts the moment the listener is up.
    Termination is externally triggered — when the last arrival has
    resolved, the driver retires the listening socket via
    ``Network.close_socket``; acceptors observe ``ECONNABORTED`` /
    ``EINVAL``, the event loop sees the listener turn readable-and-
    closed, and every architecture drains in-flight work before the
    results dict is filled.

    Supervision stays :func:`build`'s: crash containment is the chaos
    gate's territory, and under the bakeoff a killed worker simply
    surfaces as timeouts in the outcome table.
    """
    return _program(mode=mode, n_workers=n_workers,
                    service_compute_usec=service_compute_usec,
                    backlog=backlog, admission_limit=admission_limit,
                    shed=shed, port=port)
