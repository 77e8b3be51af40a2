"""The adaptive p/q controller.

Signals (all locally observable at a node, per adjustment window):

* **activity** — how many distinct frames (fresh or duplicate) the node
  heard.  Duplicates are good news here: they mean many awake neighbours,
  so an immediate broadcast would find an audience.  High activity nudges
  p up; silence nudges it down (the paper's first heuristic).
* **miss fraction** — broadcasts are source-sequenced, so a gap between
  consecutively received sequence numbers is a detected loss.  A high
  recent miss fraction nudges q up; loss-free windows let q decay (the
  paper's second heuristic).

Adjustments are bounded additive steps (AIAD), evaluated once per sleep
decision — i.e. once per frame, the protocol's natural control interval.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.core.params import PBBFParams
from repro.core.pbbf import ForwardingDecision, PBBFAgent, SleepDecision
from repro.util.canonical import canonical_json
from repro.util.validation import check_non_negative, check_probability


@dataclass(frozen=True)
class AdaptivePolicy:
    """Controller gains and bounds.

    Attributes
    ----------
    p_min / p_max / q_min / q_max:
        Clamps on the adapted parameters.  Keep ``q_min`` at or above the
        Remark 1 frontier for the chosen ``p_max`` if reliability must
        never be sacrificed.  Remark 1 describes that frontier pointwise;
        the knee-point selector
        (:func:`repro.analysis.selectors.knee_point`) names the spot on
        it a well-tuned controller should hover around — the ``pareto02``
        figure overlays this controller's operating points on the static
        (p, q) frontier to check exactly that.
    p_step / q_step:
        Additive adjustment per window.
    activity_target:
        Frames heard per window at which p holds steady; more activity
        raises p, less lowers it.
    miss_target:
        Detected miss fraction at which q holds steady.
    """

    p_min: float = 0.0
    p_max: float = 0.9
    q_min: float = 0.0
    q_max: float = 1.0
    p_step: float = 0.05
    q_step: float = 0.05
    activity_target: float = 1.0
    miss_target: float = 0.02

    def __post_init__(self) -> None:
        check_probability("p_min", self.p_min)
        check_probability("p_max", self.p_max)
        check_probability("q_min", self.q_min)
        check_probability("q_max", self.q_max)
        check_probability("p_step", self.p_step)
        check_probability("q_step", self.q_step)
        check_non_negative("activity_target", self.activity_target)
        check_probability("miss_target", self.miss_target)
        if self.p_min > self.p_max:
            raise ValueError(f"p_min ({self.p_min}) > p_max ({self.p_max})")
        if self.q_min > self.q_max:
            raise ValueError(f"q_min ({self.q_min}) > q_max ({self.q_max})")

    def adjust(
        self, p: float, q: float, heard: int, misses: int, receptions: int
    ) -> Tuple[float, float]:
        """One window's AIAD step: the next ``(p, q)`` from its counts.

        ``heard`` counts frames heard (duplicates included), ``misses``
        the sequence gaps detected and ``receptions`` the sequenced frames
        received.  The one statement of the control law, shared by
        :class:`AdaptivePBBFAgent` and the seed-batched detailed kernel.
        """
        if heard > self.activity_target:
            p = min(self.p_max, p + self.p_step)
        elif heard < self.activity_target:
            p = max(self.p_min, p - self.p_step)

        observed = receptions + misses
        if observed > 0:
            miss_fraction = misses / observed
            if miss_fraction > self.miss_target:
                q = min(self.q_max, q + self.q_step)
            else:
                q = max(self.q_min, q - self.q_step)
        return p, q

    @property
    def token(self) -> str:
        """Canonical JSON of the policy's fields.

        Campaigns sweep adaptive controllers by carrying this token as a
        plain string parameter value (the same pattern as
        :attr:`repro.scenarios.ScenarioSpec.token`), so policies hash,
        seed-fold, pickle and disk-cache like any scalar axis.
        """
        return canonical_json(asdict(self))

    @classmethod
    def from_token(cls, token: str) -> "AdaptivePolicy":
        """Rebuild a policy from its canonical token (validating fields)."""
        try:
            payload = json.loads(token)
        except ValueError as exc:
            raise ValueError(f"invalid adaptive-policy token: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError(
                f"adaptive-policy token must encode an object, got {token!r}"
            )
        known = {field for field in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"adaptive-policy token has unknown fields {sorted(unknown)}"
            )
        return cls(**payload)


class AdaptivePBBFAgent(PBBFAgent):
    """A PBBF agent whose p and q drift with observed conditions.

    Drop-in replacement for :class:`~repro.core.pbbf.PBBFAgent`: the MACs
    call the same two methods, and adjustment happens inside
    :meth:`sleep_decision` (once per frame).
    """

    def __init__(
        self,
        params: PBBFParams,
        rng: Optional[random.Random] = None,
        policy: Optional[AdaptivePolicy] = None,
    ) -> None:
        super().__init__(params, rng)
        self.policy = policy if policy is not None else AdaptivePolicy()
        self._frames_heard_this_window = 0
        self._misses_this_window = 0
        self._receptions_this_window = 0
        self._highest_seqno: Dict[Hashable, int] = {}
        #: (p, q) after each adjustment — lets experiments plot convergence.
        self.trajectory: Tuple[Tuple[float, float], ...] = ()

    # -- observations -----------------------------------------------------

    def receive_broadcast(self, broadcast_id: Hashable) -> ForwardingDecision:
        """Observe the reception (activity + sequence gaps), then decide."""
        self._frames_heard_this_window += 1
        origin, seqno = self._split(broadcast_id)
        if origin is not None:
            previous = self._highest_seqno.get(origin)
            if previous is not None and seqno > previous + 1:
                self._misses_this_window += seqno - previous - 1
            if previous is None or seqno > previous:
                self._highest_seqno[origin] = seqno
            self._receptions_this_window += 1
        return super().receive_broadcast(broadcast_id)

    def sleep_decision(
        self, data_to_send: bool = False, data_to_recv: bool = False
    ) -> SleepDecision:
        """Adjust (p, q) for the closing window, then decide as usual."""
        self._adjust()
        return super().sleep_decision(data_to_send, data_to_recv)

    # -- controller ---------------------------------------------------------

    def _adjust(self) -> None:
        p, q = self.policy.adjust(
            self.params.p,
            self.params.q,
            self._frames_heard_this_window,
            self._misses_this_window,
            self._receptions_this_window,
        )
        if (p, q) != (self.params.p, self.params.q):
            self.params = PBBFParams(p=p, q=q)
        self.trajectory = self.trajectory + ((p, q),)
        self._frames_heard_this_window = 0
        self._misses_this_window = 0
        self._receptions_this_window = 0

    @staticmethod
    def _split(broadcast_id: Hashable) -> Tuple[Optional[int], int]:
        """Extract (origin, seqno) when the id has the standard shape."""
        if (
            isinstance(broadcast_id, tuple)
            and len(broadcast_id) == 2
            and isinstance(broadcast_id[1], int)
        ):
            return broadcast_id[0], broadcast_id[1]
        return None, 0
