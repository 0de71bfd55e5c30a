"""Replication-policy plugin API, learned policies, and the rollout engine.

This package formalizes the per-node replica-management protocol the DARE
baselines (:mod:`repro.core.greedy`, :mod:`repro.core.elephant_trap`)
implement implicitly, registers them — together with the cluster-level
Scarlett/CDRM services — in a named :mod:`~repro.policies.registry`, and
adds two policies the paper does not have:

* :class:`~repro.policies.learned.LearnedPolicy` — an offline-trained
  logistic scorer over per-block access/locality/budget features, fit by
  ``repro train`` against the JSONL trace corpus the sweeps produce;
* rollout-greedy (:mod:`repro.policies.rollout`) — a one-step lookahead
  driver that forks the paused live simulation (:func:`os.fork`, one
  child per branch, :mod:`repro.policies.parallel`) at each decision
  epoch, scores candidate replications by downstream data-locality and
  makespan, and applies only strict improvements.

See ``docs/POLICIES.md`` for the plugin API and the training loop.
"""

from repro.policies.base import PolicyContext, ReplicationPolicy, UnknownPolicyError
from repro.policies.registry import (
    create_policy,
    create_service,
    policy_names,
    register_policy,
    register_service,
    service_names,
)

__all__ = [
    "PolicyContext",
    "ReplicationPolicy",
    "UnknownPolicyError",
    "create_policy",
    "create_service",
    "policy_names",
    "register_policy",
    "register_service",
    "service_names",
]
