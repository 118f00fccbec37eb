"""Runtime MPI sanitizer tests: opt-in wiring, deadlock conversion,
finalize-time accounting, ANY_SOURCE races, and collective checking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CommSanitizer, sanitizer_enabled
from repro.config import ClusterSpec, NetworkSpec, NodeSpec
from repro.errors import CommDeadlockError, DeadlockError, SanitizerError
from repro.mpi import ANY_SOURCE, ANY_TAG, SUM, Group, run_spmd
from repro.mpi.collectives import allreduce, bcast
from repro.simcluster import Cluster, Sleep


def make_cluster(n=2, *, sanitize=True, eager=1 << 20):
    return Cluster(ClusterSpec(
        n_nodes=n,
        node=NodeSpec(speed=1e6),
        network=NetworkSpec(latency=1e-4, bandwidth=1e8, eager_threshold=eager),
        sanitize=sanitize,
    ))


# ----------------------------------------------------------------------
# opt-in wiring
# ----------------------------------------------------------------------

def test_sanitizer_off_by_default(monkeypatch):
    monkeypatch.delenv("DYNMPI_SANITIZE", raising=False)
    cluster = make_cluster(sanitize=None)
    assert cluster.sanitizer is None


def test_env_var_enables(monkeypatch):
    monkeypatch.setenv("DYNMPI_SANITIZE", "1")
    cluster = make_cluster(sanitize=None)
    assert isinstance(cluster.sanitizer, CommSanitizer)


def test_spec_false_overrides_env(monkeypatch):
    monkeypatch.setenv("DYNMPI_SANITIZE", "1")
    cluster = make_cluster(sanitize=False)
    assert cluster.sanitizer is None
    assert not sanitizer_enabled(cluster.spec)


def test_spec_true_needs_no_env(monkeypatch):
    monkeypatch.delenv("DYNMPI_SANITIZE", raising=False)
    cluster = make_cluster(sanitize=True)
    assert isinstance(cluster.sanitizer, CommSanitizer)


# ----------------------------------------------------------------------
# clean programs stay clean
# ----------------------------------------------------------------------

def test_clean_point_to_point_run():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=1, payload={"x": 1})
            reply, _ = yield from ep.recv(1, tag=2)
            return reply
        data, _ = yield from ep.recv(0, tag=1)
        yield from ep.send(0, tag=2, payload="ack")

    results = run_spmd(cluster, program)
    assert results[0] == "ack"
    san = cluster.sanitizer
    assert san.n_sends == san.n_matches == 2
    report = san.finalize(raise_on_error=False)
    assert report.clean


def test_clean_rendezvous_and_collectives():
    cluster = make_cluster(4, eager=64)
    group = Group([0, 1, 2, 3])

    def program(ep):
        got = yield from bcast(ep, group, ep.rank if ep.rank == 0 else None,
                               root=0)
        total = yield from allreduce(ep, group, ep.rank, SUM)
        # a rendezvous round-trip between neighbors
        peer = ep.rank ^ 1
        if ep.rank < peer:
            yield from ep.send(peer, tag=9, payload=None, nbytes=1 << 16)
            yield from ep.recv(peer, tag=10)
        else:
            yield from ep.recv(peer, tag=9)
            yield from ep.send(peer, tag=10, payload=None, nbytes=1 << 16)
        return got, total

    results = run_spmd(cluster, program)
    assert all(r == (0, 6) for r in results)
    assert cluster.sanitizer.finalize(raise_on_error=False).clean


# ----------------------------------------------------------------------
# deadlock conversion (the fail-fast service)
# ----------------------------------------------------------------------

def head_to_head(ep):
    """Classic unsafe exchange: both ranks rendezvous-send first."""
    peer = 1 - ep.rank
    yield from ep.send(peer, tag=7, payload=None, nbytes=1 << 16)
    yield from ep.recv(peer, tag=7)


def test_head_to_head_rendezvous_deadlock_is_diagnosed():
    cluster = make_cluster(eager=64)
    with pytest.raises(CommDeadlockError) as exc:
        run_spmd(cluster, head_to_head)
    err = exc.value
    assert sorted(err.cycle) == [0, 1]
    assert sorted(err.blocked) == ["rank0", "rank1"]
    msg = str(err)
    assert "communication deadlock" in msg
    assert "rendezvous send" in msg


def test_head_to_head_without_sanitizer_is_plain_deadlock():
    cluster = make_cluster(eager=64, sanitize=False)
    with pytest.raises(DeadlockError) as exc:
        run_spmd(cluster, head_to_head)
    assert not isinstance(exc.value, CommDeadlockError)


def test_recv_recv_cycle_is_diagnosed():
    cluster = make_cluster()

    def program(ep):
        peer = 1 - ep.rank
        yield from ep.recv(peer, tag=3)
        yield from ep.send(peer, tag=3, payload=None)

    with pytest.raises(CommDeadlockError) as exc:
        run_spmd(cluster, program)
    assert sorted(exc.value.cycle) == [0, 1]
    assert "blocked in recv" in str(exc.value)


def test_irecv_match_keeps_the_blocked_recv_in_the_graph():
    """A message matched by an earlier irecv does not satisfy the
    rank's blocking recv: the rank stays in the wait-for graph and the
    recv/recv cycle it closes later is diagnosed."""
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 0:
            req = ep.irecv(1, tag=5)
            yield from ep.recv(1, tag=6)
            yield from req.wait()
        else:
            yield from ep.send(0, tag=5, payload=None)
            yield Sleep(0.01)
            yield from ep.recv(0, tag=7)

    with pytest.raises(CommDeadlockError) as exc:
        run_spmd(cluster, program)
    assert exc.value.cycle == [0, 1]
    assert "blocked in recv from rank 1 (tag=6)" in exc.value.ops[0]


def test_safe_exchange_ordering_is_not_flagged():
    """send/recv vs recv/send is legal and must not trip the detector."""
    cluster = make_cluster(eager=64)

    def program(ep):
        peer = 1 - ep.rank
        if ep.rank == 0:
            yield from ep.send(peer, tag=4, payload=None, nbytes=1 << 16)
            yield from ep.recv(peer, tag=5)
        else:
            yield from ep.recv(peer, tag=4)
            yield from ep.send(peer, tag=5, payload=None, nbytes=1 << 16)

    run_spmd(cluster, program)
    assert cluster.sanitizer.finalize(raise_on_error=False).clean


# ----------------------------------------------------------------------
# finalize-time accounting
# ----------------------------------------------------------------------

def test_unmatched_eager_send_reported_at_finalize():
    cluster = make_cluster()

    def program(ep):
        if ep.rank == 0:
            yield from ep.send(1, tag=5, payload=None, nbytes=8)
        else:
            yield Sleep(0.01)

    with pytest.raises(SanitizerError, match="unmatched send"):
        run_spmd(cluster, program)
    report = cluster.sanitizer.finalize(raise_on_error=False)
    assert any("0->1 tag=5" in e for e in report.errors)


def test_incomplete_collective_warned_at_finalize():
    cluster = make_cluster()
    group = Group([0, 1])

    def program(ep):
        if ep.rank == 0:
            yield from bcast(ep, group, "v", root=0)
        else:
            yield Sleep(0.01)

    # rank 0's eager tree send is never consumed -> finalize error,
    # and the half-entered collective is reported alongside it.
    with pytest.raises(SanitizerError, match="unmatched send"):
        run_spmd(cluster, program)
    report = cluster.sanitizer.finalize(raise_on_error=False)
    assert any("incomplete collective bcast" in w for w in report.warnings)


def test_any_source_race_is_warned():
    cluster = make_cluster(3)

    def program(ep):
        if ep.rank < 2:
            yield from ep.send(2, tag=1, payload=ep.rank)
        else:
            yield Sleep(1.0)  # let both messages arrive first
            got = set()
            for _ in range(2):
                v, _ = yield from ep.recv(ANY_SOURCE, ANY_TAG)
                got.add(v)
            assert got == {0, 1}

    run_spmd(cluster, program)
    warnings = cluster.sanitizer.warnings
    assert any("ANY_SOURCE race" in w for w in warnings)


def test_collective_mismatch_raises_immediately():
    cluster = make_cluster()
    group = Group([0, 1])

    def program(ep):
        # SPMD violation: the two ranks disagree on the root
        got = yield from bcast(ep, group, ep.rank, root=ep.rank)
        return got

    with pytest.raises(SanitizerError, match="collective mismatch"):
        run_spmd(cluster, program)


# ----------------------------------------------------------------------
# incremental deadlock check vs the full reference walk
# ----------------------------------------------------------------------

class _Env:
    """The envelope fields the sanitizer reads."""

    def __init__(self, src, dst, tag, rendezvous):
        self.src, self.dst, self.tag = src, dst, tag
        self.nbytes = 64 if rendezvous else 8
        self.rendezvous = rendezvous


def test_match_that_uncovers_an_edge_is_checked():
    """Rank 0 is blocked in recv(1, tag=5) behind an earlier
    irecv(1, tag=5); rank 1 sent one tag-5 message, then blocked in
    recv(0).  Delivering that message into the irecv leaves rank 0's
    wait unsuppressed and closes the cycle, with no rank blocking."""
    san = CommSanitizer()
    env = _Env(1, 0, 5, rendezvous=False)
    san.on_send(env)
    san.on_recv_posted(10, 1, 0, 7)
    san.on_block(1, "recv", 0, 7)
    san.on_recv_posted(20, 0, 1, 5)   # the irecv
    san.on_recv_posted(21, 0, 1, 5)   # the blocking recv
    san.on_block(0, "recv", 1, 5)     # in-flight tag 5 suppresses 0 -> 1
    san.on_match(env, 0, 1, 5, post_key=20)
    with pytest.raises(CommDeadlockError) as exc:
        san.check_deadlock()
    assert exc.value.cycle == [1, 0]


def test_match_that_uses_up_a_posted_receive_is_checked():
    """Rank 1's rendezvous send to rank 0 is covered by rank 0's
    ANY_SOURCE irecv until a message from rank 2 takes that receive;
    rank 0 meanwhile waits in recv(1, tag=4)."""
    san = CommSanitizer()
    san.on_recv_posted(10, 0, ANY_SOURCE, ANY_TAG)
    rdv = _Env(1, 0, 3, rendezvous=True)
    san.on_send(rdv)
    san.on_block(1, "send-rdv", 0, 3, env=rdv)
    eager = _Env(2, 0, 9, rendezvous=False)
    san.on_send(eager)
    san.on_recv_posted(11, 0, 1, 4)
    san.on_block(0, "recv", 1, 4)
    san.on_match(eager, 0, ANY_SOURCE, ANY_TAG, post_key=10)
    with pytest.raises(CommDeadlockError) as exc:
        san.check_deadlock()
    assert exc.value.cycle == [1, 0]
    assert "rendezvous send to rank 0" in exc.value.ops[1]


def _outcome(check):
    try:
        check()
    except CommDeadlockError as err:
        return err.cycle, err.ops
    return None


#: one step: (action, rank, peer, tag, flag, pick); tag -1 is ANY_TAG
_STEP = st.tuples(
    st.sampled_from(["send", "send", "post", "post", "recv", "recv", "poll",
                     "data", "match", "match", "match", "match", "unblock",
                     "dead"]),
    st.integers(0, 5), st.integers(-1, 5), st.integers(-1, 1),
    st.booleans(), st.integers(0, 1 << 16),
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 6), steps=st.lists(_STEP, max_size=80))
def test_incremental_check_matches_the_full_walk(n, steps):
    """Drive random hook sequences the way the comm layer orders them
    and, after every hook, require the incremental check to raise
    exactly when the full walk finds a cycle, with the same cycle and
    ops."""
    san = CommSanitizer()
    sent = []      # every envelope ever sent (a send-rdv may outlive it)
    pending = []   # envelopes not yet consumed
    posted = {}    # key -> (rank, source, tag) of unmatched receives
    keys = iter(range(1, 1 << 20))

    def hook(fn, *args, **kwargs):
        try:
            fn(*args, **kwargs)
        except CommDeadlockError:
            pass  # on_block checks too; a cycle it found must persist
        assert _outcome(san.check_deadlock) == _outcome(
            san._check_deadlock_reference)

    for action, rank, peer, tag, flag, pick in steps:
        rank %= n
        peer = ANY_SOURCE if peer < 0 else peer % n
        if action == "send":
            dst = rank if peer == ANY_SOURCE else peer
            env = _Env(rank, dst, max(tag, 0), rendezvous=flag)
            sent.append(env)
            pending.append(env)
            hook(san.on_send, env)
            if flag:
                hook(san.on_block, rank, "send-rdv", dst, env.tag, env=env)
        elif action in ("post", "recv"):
            key = next(keys)
            posted[key] = (rank, peer, tag)
            hook(san.on_recv_posted, key, rank, peer, tag)
            if action == "recv":
                hook(san.on_block, rank, "recv", peer, tag)
        elif action == "poll":
            hook(san.on_block, rank, "recv-poll", peer, tag)
        elif action == "data" and sent:
            env = sent[pick % len(sent)]
            hook(san.on_block, env.dst, "recv-data", env.src, env.tag)
        elif action == "match" and pending:
            env = pending.pop(pick % len(pending))
            # delivery takes the first matching posted receive, as in
            # SimComm._deliver; else the rank takes it from its mailbox
            key = next((k for k, (r, source, want) in posted.items()
                        if r == env.dst and source in (ANY_SOURCE, env.src)
                        and want in (ANY_TAG, env.tag)), None)
            if flag and key is not None:
                _, source, want = posted.pop(key)
                hook(san.on_match, env, env.dst, source, want, post_key=key)
            else:
                source = ANY_SOURCE if pick % 3 == 0 else env.src
                hook(san.on_match, env, env.dst, source, env.tag)
        elif action == "unblock":
            hook(san.on_unblock, rank)
        elif action == "dead":
            hook(san.mark_dead, rank)
