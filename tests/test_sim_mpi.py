"""Tests for the MPI-like primitives: timing semantics, matching, payloads."""

import random

import numpy as np
import pytest

from repro.model.machine import Machine
from repro.sim.deadlock import BlockedRank, diagnose
from repro.sim.mpi import World


def _machine(**kw):
    """Round numbers so hand-computed timings stay readable:
    fill_MPI = 1 s, fill_kernel = 1 s, wire = 1 s per 1000 bytes."""
    defaults = dict(
        t_c=1.0,
        t_s=2.0,
        t_t=1e-3,
        fill_mpi_fraction=0.5,
        dma=True,
        duplex=True,
        network_latency=0.0,
    )
    defaults.update(kw)
    return Machine(**defaults)


class _RecordingWorld(World):
    """Logs every in-order delivery and every receive post in the order
    the world performs them, and counts the deliveries that found a
    message held back behind them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []
        self.held_seen = 0

    def _release(self, msg):
        self.held_seen += self.unmatched()[2] > 0
        self.log.append(("deliver", msg.src, msg.dst, msg.tag, msg.payload))
        super()._release(msg)

    def _post_receive(self, req, rank):
        self.log.append(("post", req.src, rank, req.tag, req))
        super()._post_receive(req, rank)


def _linear_scan_matches(log, num_ranks):
    """Replay a logged run through a reference matcher: per destination
    rank, one list of unexpected messages and one of posted receives,
    each scanned for the first entry with the same (src, tag).

    Returns the payload each receive request gets, and how many receives
    were posted before and after their message was delivered."""
    arrived = [[] for _ in range(num_ranks)]
    posted = [[] for _ in range(num_ranks)]
    expected = {}
    posted_first = arrived_first = 0
    for kind, src, dst, tag, item in log:
        if kind == "deliver":
            for k, (s, t, req) in enumerate(posted[dst]):
                if s == src and t == tag:
                    del posted[dst][k]
                    expected[req] = item
                    posted_first += 1
                    break
            else:
                arrived[dst].append((src, tag, item))
        else:
            for k, (s, t, payload) in enumerate(arrived[dst]):
                if s == src and t == tag:
                    del arrived[dst][k]
                    expected[item] = payload
                    arrived_first += 1
                    break
            else:
                posted[dst].append((src, tag, item))
    return expected, posted_first, arrived_first


def _check_matching_against_reference(rng, totals):
    """One random program: 2-4 senders stream messages of mixed sizes on
    1-3 tags to one receiver, which posts the matching receives in a
    shuffled order, blocking and non-blocking, with random delays so
    some posts precede their message and some follow it.  Two DMA
    channels and size-dependent kernel copies let a small message
    overtake a large one in hardware, so the hold-back path runs."""
    n_senders = rng.randint(2, 4)
    n_tags = rng.randint(1, 3)
    dst = n_senders
    machine = _machine(dma_channels=2, fill_kernel_per_byte=1e-3,
                       network_latency=rng.choice([0.0, 0.5]))
    sends = [
        [(rng.randrange(n_tags), rng.choice([10, 300, 4000]),
          rng.choice([0.0, 0.0, 0.5, 4.0]))
         for _ in range(rng.randint(2, 8))]
        for _ in range(n_senders)
    ]
    plan = [(src, tag) for src in range(n_senders) for tag, _, _ in sends[src]]
    rng.shuffle(plan)
    plan = [(src, tag, rng.random() < 0.3, rng.choice([0.0, 0.0, 1.0, 6.0]),
             rng.random() < 0.3) for src, tag in plan]
    received = []  # ((src, tag, k), request or payload), in post order

    def sender(rank):
        def program(ctx):
            counts = [0] * n_tags
            for tag, nbytes, delay in sends[rank]:
                if delay:
                    yield ctx.compute_seconds(delay)
                counts[tag] += 1
                yield ctx.isend(dst, nbytes, payload=(rank, tag, counts[tag]),
                                tag=tag)
        return program

    def receiver(ctx):
        counts = {}
        pending = []
        for src, tag, blocking, delay, drain in plan:
            if delay:
                yield ctx.compute_seconds(delay)
            k = counts[src, tag] = counts.get((src, tag), 0) + 1
            if blocking:
                received.append(((src, tag, k), (yield ctx.recv(src, 300, tag))))
            else:
                req = yield ctx.irecv(src, 300, tag)
                received.append(((src, tag, k), req))
                pending.append(req)
            if drain:
                yield ctx.waitall(pending)
                pending = []
        yield ctx.waitall(pending)

    w = _RecordingWorld(machine, n_senders + 1)
    w.run([sender(r) for r in range(n_senders)] + [receiver])
    payloads = [got if isinstance(got, tuple) else got.payload
                for _want, got in received]
    assert payloads == [want for want, _got in received]
    expected, posted_first, arrived_first = _linear_scan_matches(
        w.log, n_senders + 1)
    posts = [item for kind, *_, item in w.log if kind == "post"]
    assert len(posts) == len(expected) == len(received)
    assert [r.payload for r in posts] == [expected[r] for r in posts]
    totals["held"] += w.held_seen
    totals["posted_first"] += posted_first
    totals["arrived_first"] += arrived_first


class TestIsendIrecvTiming:
    def test_pipeline_stages(self):
        """isend at t=0: A1 (1s CPU) → B3 (1s DMA) → TX (1s) → RX (1s) →
        B2 (1s DMA) → delivered at t=5; receiver's wait returns then."""
        w = World(_machine(), 2)
        send_resumed = []
        recv_done = []

        def sender(ctx):
            req = yield ctx.isend(1, 1000)
            send_resumed.append(ctx.world.sim.now)
            yield ctx.wait(req)
            send_resumed.append(ctx.world.sim.now)

        def receiver(ctx):
            req = yield ctx.irecv(0, 1000)
            yield ctx.wait(req)
            recv_done.append(ctx.world.sim.now)

        w.run([sender, receiver])
        assert send_resumed[0] == pytest.approx(1.0)  # after A1
        assert send_resumed[1] == pytest.approx(2.0)  # B3 done: buffer free
        assert recv_done[0] == pytest.approx(5.0)

    def test_compute_overlaps_communication(self):
        """The whole point of the paper: compute during the B-chain."""
        w = World(_machine(), 2)
        finish = {}

        def sender(ctx):
            req = yield ctx.isend(1, 1000)
            yield ctx.compute_seconds(10.0)
            yield ctx.wait(req)
            finish["s"] = ctx.world.sim.now

        def receiver(ctx):
            req = yield ctx.irecv(0, 1000)
            yield ctx.compute_seconds(10.0)
            yield ctx.wait(req)
            finish["r"] = ctx.world.sim.now

        w.run([sender, receiver])
        # Sender: A1 (1) + compute (10); send completed long before.
        assert finish["s"] == pytest.approx(11.0)
        # Receiver: A3 (1) + compute (10) = 11 > delivery at 5.
        assert finish["r"] == pytest.approx(11.0)

    def test_blocking_send_holds_cpu_until_transmitted(self):
        w = World(_machine(), 2)
        t = {}

        def sender(ctx):
            yield ctx.send(1, 1000)
            t["sent"] = ctx.world.sim.now

        def receiver(ctx):
            data = yield ctx.recv(0, 1000)
            t["recv"] = ctx.world.sim.now

        w.run([sender, receiver])
        # A1 (1) + B3 (1) + TX (1) = 3.
        assert t["sent"] == pytest.approx(3.0)
        # Delivery: + RX (1) + B2 (1) = 5.
        assert t["recv"] == pytest.approx(5.0)

    def test_blocking_recv_blocks_until_delivery(self):
        w = World(_machine(), 2)
        t = {}

        def sender(ctx):
            yield ctx.compute_seconds(7.0)
            yield ctx.send(1, 1000)

        def receiver(ctx):
            yield ctx.recv(0, 1000)
            t["recv"] = ctx.world.sim.now

        w.run([sender, receiver])
        # Sender starts at 7: +A1+B3+TX+RX+B2 → delivery at 12.
        assert t["recv"] == pytest.approx(12.0)

    def test_message_arriving_before_post_is_buffered(self):
        w = World(_machine(), 2)
        t = {}

        def sender(ctx):
            yield ctx.isend(1, 1000)

        def receiver(ctx):
            yield ctx.compute_seconds(100.0)
            data = yield ctx.recv(0, 1000)
            t["recv"] = ctx.world.sim.now

        w.run([sender, receiver])
        # Message delivered at 5, receiver asks at 101 (after A3): immediate.
        assert t["recv"] == pytest.approx(101.0)


class TestNoDma:
    def test_kernel_copies_charge_cpu(self):
        """dma=False: B3 extends the isend CPU charge, B2 is paid in wait."""
        w = World(_machine(dma=False), 2)
        t = {}

        def sender(ctx):
            req = yield ctx.isend(1, 1000)
            t["after_isend"] = ctx.world.sim.now
            yield ctx.wait(req)

        def receiver(ctx):
            req = yield ctx.irecv(0, 1000)
            t["after_irecv"] = ctx.world.sim.now
            yield ctx.wait(req)
            t["after_wait"] = ctx.world.sim.now

        w.run([sender, receiver])
        assert t["after_isend"] == pytest.approx(2.0)  # A1 + B3 on CPU
        assert t["after_irecv"] == pytest.approx(1.0)  # A3 only
        # Chain: send CPU 2 + TX 1 + RX 1 → arrival 4; B2 on CPU in wait: 5.
        assert t["after_wait"] == pytest.approx(5.0)

    def test_b2_paid_once_across_waits(self):
        w = World(_machine(dma=False), 2)
        t = {}

        def sender(ctx):
            yield ctx.isend(1, 1000)

        def receiver(ctx):
            req = yield ctx.irecv(0, 1000)
            yield ctx.wait(req)
            t1 = ctx.world.sim.now
            yield ctx.wait(req)
            t["delta"] = ctx.world.sim.now - t1

        w.run([sender, receiver])
        assert t["delta"] == pytest.approx(0.0)


class TestMatching:
    def test_fifo_non_overtaking(self):
        w = World(_machine(), 2)
        got = []

        def sender(ctx):
            yield ctx.isend(1, 10, payload="first")
            yield ctx.isend(1, 10, payload="second")

        def receiver(ctx):
            a = yield ctx.recv(0, 10)
            b = yield ctx.recv(0, 10)
            got.extend([a, b])

        w.run([sender, receiver])
        assert got == ["first", "second"]

    def test_tags_separate_streams(self):
        w = World(_machine(), 2)
        got = []

        def sender(ctx):
            yield ctx.isend(1, 10, payload="t1", tag=1)
            yield ctx.isend(1, 10, payload="t0", tag=0)

        def receiver(ctx):
            a = yield ctx.recv(0, 10, tag=0)
            b = yield ctx.recv(0, 10, tag=1)
            got.extend([a, b])

        w.run([sender, receiver])
        assert got == ["t0", "t1"]

    def test_sources_separate_streams(self):
        w = World(_machine(), 3)
        got = []

        def s0(ctx):
            yield ctx.isend(2, 10, payload="from0")

        def s1(ctx):
            yield ctx.isend(2, 10, payload="from1")

        def receiver(ctx):
            a = yield ctx.recv(1, 10)
            b = yield ctx.recv(0, 10)
            got.extend([a, b])

        w.run([s0, s1, receiver])
        assert got == ["from1", "from0"]

    def test_matching_agrees_with_linear_scan_reference(self):
        """Seeded random programs: every receive gets the payload a
        per-rank linear scan of unexpected messages and posted receives
        would give it, and the k-th receive of a stream gets its k-th
        send (non-overtaking, through the hold-back path)."""
        totals = {"held": 0, "posted_first": 0, "arrived_first": 0}
        for seed in range(200):
            _check_matching_against_reference(random.Random(seed), totals)
        # The scenarios exercise every matching path, not just one.
        assert totals["held"] >= 100
        assert totals["posted_first"] >= 200
        assert totals["arrived_first"] >= 200

    def test_two_rank_wedge_report(self):
        # Each rank sends on a tag its peer never receives and waits on
        # one its peer never sends.  Entries come out sorted by
        # (dst, src, tag), not in posting order.
        w = World(_machine(), 2)

        def p0(ctx):
            yield ctx.isend(1, 10, payload="x", tag=1)
            yield ctx.isend(1, 10, payload="x", tag=1)
            yield ctx.recv(1, 10, tag=0)

        def p1(ctx):
            r3 = yield ctx.irecv(0, 10, tag=3)
            r0 = yield ctx.irecv(0, 10, tag=0)
            yield ctx.isend(0, 10, payload="y", tag=2)
            yield ctx.waitall([r3, r0])

        with pytest.raises(RuntimeError, match="deadlock"):
            w.run([p0, p1])
        report = diagnose(w)
        assert report.blocked == (
            BlockedRank("rank0", "recv(blocking)<-1"),
            BlockedRank("rank1", "waitall(2)"),
        )
        assert report.unmatched_receives == ((0, 1, 0), (1, 0, 0), (1, 0, 3))
        assert report.undelivered_messages == ((0, 1, 2), (1, 0, 1), (1, 0, 1))
        assert w.unmatched() == (
            report.unmatched_receives, report.undelivered_messages, 0,
        )

    def test_waitall_returns_aligned_payloads(self):
        w = World(_machine(), 2)
        got = []

        def sender(ctx):
            r1 = yield ctx.isend(1, 10, payload="x")
            r2 = yield ctx.isend(1, 10, payload="y")
            yield ctx.waitall([r1, r2])

        def receiver(ctx):
            ra = yield ctx.irecv(0, 10)
            rb = yield ctx.irecv(0, 10)
            vals = yield ctx.waitall([ra, rb])
            got.append(vals)

        w.run([sender, receiver])
        assert got == [["x", "y"]]


class TestPayloads:
    def test_numpy_payload_copied_at_send(self):
        w = World(_machine(), 2)
        got = []

        def sender(ctx):
            data = np.array([1.0, 2.0])
            yield ctx.isend(1, 10, payload=data)
            data[0] = 99.0  # mutation after isend must not be visible

        def receiver(ctx):
            got.append((yield ctx.recv(0, 10)))

        w.run([sender, receiver])
        assert got[0][0] == 1.0

    def test_deepcopy_for_plain_objects(self):
        w = World(_machine(), 2)
        got = []

        def sender(ctx):
            data = {"k": [1, 2]}
            yield ctx.isend(1, 10, payload=data)
            data["k"].append(3)

        def receiver(ctx):
            got.append((yield ctx.recv(0, 10)))

        w.run([sender, receiver])
        assert got[0] == {"k": [1, 2]}


class TestBarrierAndErrors:
    def test_barrier_synchronises(self):
        w = World(_machine(), 3)
        times = []

        def prog(delay):
            def program(ctx):
                yield ctx.compute_seconds(delay)
                yield ctx.barrier()
                times.append(ctx.world.sim.now)

            return program

        w.run([prog(1.0), prog(5.0), prog(3.0)])
        assert times == [pytest.approx(5.0)] * 3

    def test_deadlock_raises_and_diagnoses(self):
        w = World(_machine(), 2)

        def p0(ctx):
            yield ctx.recv(1, 10)

        def p1(ctx):
            yield ctx.recv(0, 10)

        with pytest.raises(RuntimeError, match="deadlock"):
            w.run([p0, p1])
        report = diagnose(w)
        assert report.is_deadlocked
        assert len(report.blocked) == 2
        assert "recv" in report.describe()

    def test_bad_destination(self):
        w = World(_machine(), 2)

        def p0(ctx):
            yield ctx.isend(5, 10)

        def idle(ctx):
            yield ctx.compute_seconds(0.0)

        with pytest.raises(ValueError):
            w.run([p0, idle])

    def test_program_count_mismatch(self):
        w = World(_machine(), 2)
        with pytest.raises(ValueError):
            w.run([lambda ctx: iter(())])

    def test_wait_on_non_request(self):
        w = World(_machine(), 1)

        def p0(ctx):
            yield ctx.wait("nope")

        with pytest.raises(TypeError):
            w.run([p0])

    def test_context_validation(self):
        w = World(_machine(), 1)
        with pytest.raises(ValueError):
            w.context(3)
        with pytest.raises(ValueError):
            World(_machine(), 0)


class TestTracing:
    def test_trace_kinds_recorded(self):
        w = World(_machine(), 2, trace=True)

        def sender(ctx):
            req = yield ctx.isend(1, 1000)
            yield ctx.compute_seconds(2.0)
            yield ctx.wait(req)

        def receiver(ctx):
            yield ctx.recv(0, 1000)

        w.run([sender, receiver])
        kinds0 = {r.kind for r in w.trace.for_rank(0)}
        kinds1 = {r.kind for r in w.trace.for_rank(1)}
        assert "fill_mpi_send" in kinds0 and "compute" in kinds0
        assert "fill_mpi_recv" in kinds1 and "blocked_recv" in kinds1

    def test_busy_time_excludes_blocked(self):
        w = World(_machine(), 2, trace=True)

        def sender(ctx):
            yield ctx.compute_seconds(10.0)
            yield ctx.send(1, 1000)

        def receiver(ctx):
            yield ctx.recv(0, 1000)

        w.run([sender, receiver])
        # Receiver CPU busy: A3 only (1 s); blocked the rest.
        assert w.trace.busy_time(1) == pytest.approx(1.0)
