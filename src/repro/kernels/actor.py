"""Actor kernels: message-passing bugs built on channels.

The study observes (Finding 2 and its discussion of alternative
paradigms) that many order-violation bugs are really *protocol* bugs:
the programmer assumed a delivery or processing order no mechanism
enforces.  Message-passing systems express the same mistakes through
mailboxes instead of shared variables, so this family rebuilds two
canonical ones on the simulator's channel operations
(:class:`~repro.sim.ops.Send` / :class:`~repro.sim.ops.Recv` /
:class:`~repro.sim.ops.Select`):

* :func:`actor_mailbox_order` — a server selects over its control and
  request mailboxes and processes whichever message arrives first; the
  protocol *intends* configuration-before-request, but nothing orders
  the two senders, and a request that overtakes the configuration is
  handled against unset state.  Canonical fix: a **code switch** — the
  server receives the configuration first, then serves requests.
* :func:`actor_lost_message` — a producer checks a shutdown flag before
  sending its result; if the shutdown races in between the consumer's
  expectation and the check, the send is skipped and the consumer
  blocks forever on an empty mailbox: the message is lost.  Canonical
  fix: a **code switch** — send the in-flight result first, then honour
  the shutdown flag.
"""

from __future__ import annotations

from repro.bugdb.schema import BugCategory, FixStrategy
from repro.errors import SimCrash
from repro.kernels.base import BugKernel
from repro.sim import Program, Read, Recv, RunStatus, Select, Send, Write

__all__ = ["actor_mailbox_order", "actor_lost_message"]


def actor_mailbox_order() -> BugKernel:
    """Request overtakes configuration in a select-driven server."""

    def configurator():
        yield Send("cfg", 42, label="cfg.send")

    def client():
        yield Send("req", "job", label="req.send")

    def server_buggy():
        # Serves whichever mailbox fills first — the unstated assumption
        # is that the configuration message always wins that race.
        chan, value = yield Select(("req", "cfg"), label="server.sel1")
        if chan == "cfg":
            yield Write("config", value)
        else:
            cfg = yield Read("config", label="server.use1")
            if cfg is None:
                raise SimCrash("request handled before configuration")
            yield Write("handled", (value, cfg))
        chan, value = yield Select(("req", "cfg"), label="server.sel2")
        if chan == "cfg":
            yield Write("config", value)
        else:
            cfg = yield Read("config", label="server.use2")
            if cfg is None:
                raise SimCrash("request handled before configuration")
            yield Write("handled", (value, cfg))

    def server_fixed():
        # The code switch: take the configuration mailbox first; only
        # then start serving requests.
        value = yield Recv("cfg", label="server.getcfg")
        yield Write("config", value)
        value = yield Recv("req", label="server.getreq")
        cfg = yield Read("config", label="server.use")
        yield Write("handled", (value, cfg))

    declarations = dict(
        initial={"config": None, "handled": None},
        channels={"cfg": None, "req": None},
    )
    buggy = Program(
        "actor-mailbox-order(buggy)",
        threads={
            "Server": server_buggy,
            "Configurator": configurator,
            "Client": client,
        },
        **declarations,
    )
    fixed = Program(
        "actor-mailbox-order(fixed:code-switch)",
        threads={
            "Server": server_fixed,
            "Configurator": configurator,
            "Client": client,
        },
        **declarations,
    )
    return BugKernel(
        name="actor_mailbox_order",
        title="request message overtakes the configuration message",
        description=(
            "the server selects over its control and request mailboxes and "
            "trusts arrival order to match the intended protocol order; a "
            "request delivered before the configuration is processed "
            "against unset state"
        ),
        category=BugCategory.NON_DEADLOCK,
        buggy=buggy,
        fixed=fixed,
        fix_strategy=FixStrategy.CODE_SWITCH,
        failure=lambda run: run.status is RunStatus.CRASH,
        threads_involved=3,
        variables_involved=1,
        accesses_to_manifest=2,
        manifest_order=(
            # The request must be in the mailbox when the server first
            # selects.  Select polls ``req`` before ``cfg``, so the server
            # then commits to the request branch whatever ``cfg`` holds.
            ("req.send", "server.sel1"),
        ),
        family="actor",
    )


def actor_lost_message() -> BugKernel:
    """Shutdown races the producer's guard; the result is never sent."""

    def producer_buggy():
        stopping = yield Read("stopping", label="producer.check")
        if not stopping:
            yield Send("results", "payload", label="producer.send")

    def producer_fixed():
        # The code switch: the in-flight result is sent before the
        # shutdown flag is honoured, so the consumer's expectation is
        # always met.
        yield Send("results", "payload", label="producer.send")
        stopping = yield Read("stopping", label="producer.check")
        if stopping:
            yield Write("drained", True)

    def shutdown():
        yield Write("stopping", True, label="shutdown.set")

    def consumer():
        value = yield Recv("results", label="consumer.recv")
        yield Write("collected", value)

    declarations = dict(
        initial={"stopping": False, "collected": None, "drained": False},
        channels={"results": None},
    )
    buggy = Program(
        "actor-lost-message(buggy)",
        threads={
            "Producer": producer_buggy,
            "Shutdown": shutdown,
            "Consumer": consumer,
        },
        **declarations,
    )
    fixed = Program(
        "actor-lost-message(fixed:code-switch)",
        threads={
            "Producer": producer_fixed,
            "Shutdown": shutdown,
            "Consumer": consumer,
        },
        **declarations,
    )
    return BugKernel(
        name="actor_lost_message",
        title="lost message: shutdown races the producer's guard",
        description=(
            "the producer checks the shutdown flag before sending its "
            "result while the consumer unconditionally waits for one; a "
            "shutdown that lands before the check suppresses the send and "
            "the consumer blocks forever on the empty mailbox"
        ),
        category=BugCategory.NON_DEADLOCK,
        buggy=buggy,
        fixed=fixed,
        fix_strategy=FixStrategy.CODE_SWITCH,
        failure=lambda run: run.status is RunStatus.HANG,
        threads_involved=3,
        variables_involved=1,
        accesses_to_manifest=2,
        manifest_order=(("shutdown.set", "producer.check"),),
        family="actor",
    )
