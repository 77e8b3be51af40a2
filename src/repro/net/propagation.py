"""Link-loss model.

The paper's ns-2 study uses a fixed transmission range (the R in Eq. 13):
a transmission is audible at exactly the topology neighbours of its
sender, and interference and collisions are handled by
:mod:`repro.net.channel` on top of that adjacency.

:class:`LossModel` adds optional independent per-reception loss, used by the
test suite's failure-injection scenarios (it defaults to lossless, matching
the paper).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.util.validation import check_probability


class LossModel:
    """Independent per-reception packet loss (failure injection).

    Each delivery attempt independently fails with ``loss_probability``.
    The default 0.0 reproduces the paper's setting where losses come only
    from collisions and sleeping receivers.
    """

    def __init__(
        self,
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.loss_probability = check_probability("loss_probability", loss_probability)
        self._rng = rng if rng is not None else random.Random()

    def delivers(self) -> bool:
        """Sample whether one reception survives the loss process."""
        if self.loss_probability == 0.0:
            return True
        return self._rng.random() >= self.loss_probability
