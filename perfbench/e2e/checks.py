"""Correctness checks, all run outside the timed region.

Each check is recorded as one attempted operation; a failed check is one
failed operation, so it shows in ``error_rate`` like a refused request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.framework import RICDDetector
from repro.store.serialization import result_to_json

from .inputs import PARAMS


@dataclass
class Checks:
    """Pass/fail ledger of one run."""

    results: list = field(default_factory=list)  # (name, ok, detail)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def __len__(self) -> int:
        return len(self.results)


def canonical(payload: dict) -> tuple:
    """Order-free form of a ``result_to_json`` payload (timings dropped)."""
    return (
        tuple(payload["suspicious_users"]),
        tuple(payload["suspicious_items"]),
        frozenset(
            (tuple(group["users"]), tuple(group["items"]), tuple(group["hot_items"]))
            for group in payload["groups"]
        ),
        tuple(sorted(payload["user_scores"].items())),
        tuple(sorted(payload["item_scores"].items())),
        payload["degraded"],
        payload["stale"],
    )


def batch_canonical(graph) -> tuple:
    """Canonical one-shot ``RICDDetector.detect`` on ``graph`` (the parity oracle)."""
    detector = RICDDetector(params=PARAMS, engine="auto", max_group_users=18)
    return canonical(result_to_json(detector.detect(graph)))


def expected_verdict(result, side: str, node: str, version: int) -> dict:
    """The verdict fields ``DetectionAPI.verdict`` must serve from ``result``."""
    members = result.suspicious_users if side == "user" else result.suspicious_items
    scores = result.user_scores if side == "user" else result.item_scores
    score = next((float(value) for key, value in scores.items() if str(key) == node), None)
    groups = [
        index
        for index, group in enumerate(result.groups)
        if node in {str(key) for key in (group.users if side == "user" else group.items)}
    ]
    return {
        "node": node,
        "side": side,
        "suspicious": node in {str(key) for key in members},
        "score": score,
        "groups": groups,
        "store_version": version,
        "stale": result.stale,
    }


def verdict_matches(body: dict, expected: dict) -> bool:
    return all(body.get(key) == value for key, value in expected.items())
