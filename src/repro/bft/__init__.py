"""PBFT protocol core (the Reptor algorithm) over the Reptor comm stack.

Agreement (pre-prepare / prepare / commit with batching, checkpoints and
view changes), execution of a pluggable deterministic state machine, a
quorum-checking client, Byzantine/crash fault behaviours for testing
(:mod:`repro.bft.faults`), and a one-call cluster builder.  Runs over
either the NIO/TCP or the RUBIN/RDMA transport — the comparison at the
heart of the paper.
"""

from repro.bft import faults
from repro.bft.client import BftClient
from repro.bft.cluster import REPLICA_PORT, BftCluster
from repro.bft.config import BftConfig
from repro.bft.cop import AdaptiveBatcher, MergeStage, make_partitioner
from repro.bft.log import MessageLog, Slot
from repro.bft.onesided import OneSidedLink, OneSidedPath, wire_onesided
from repro.bft.messages import (
    Checkpoint,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    Reply,
    Request,
    StateTransferReply,
    StateTransferRequest,
    ViewChange,
    decode,
    encode,
)
from repro.bft.replica import Replica, batch_digest
from repro.bft.statemachine import CounterMachine, KeyValueStore, StateMachine

__all__ = [
    "AdaptiveBatcher",
    "BftCluster",
    "BftClient",
    "BftConfig",
    "MergeStage",
    "make_partitioner",
    "Replica",
    "OneSidedPath",
    "OneSidedLink",
    "wire_onesided",
    "batch_digest",
    "faults",
    "MessageLog",
    "Slot",
    "StateMachine",
    "KeyValueStore",
    "CounterMachine",
    "Request",
    "Reply",
    "PrePrepare",
    "Prepare",
    "Commit",
    "Checkpoint",
    "ViewChange",
    "NewView",
    "StateTransferRequest",
    "StateTransferReply",
    "encode",
    "decode",
    "REPLICA_PORT",
]
