"""Always-on streaming detection service (the paper's Section VIII online
deployment).

The batch reproduction answers "is this click table under attack?"; this
package answers it *continuously*: click events stream into a bounded
queue, a micro-batch pump drains them into an
:class:`~repro.core.incremental.IncrementalRICD`, and a bounded-staleness
scheduler decides when the live graph is rechecked.  Under
overload the service degrades explicitly instead of falling over —
oldest-first shedding, coarser recheck cadence, stale-result serving —
with every step accounted through :mod:`repro.obs` and surfaced as
provenance on the served result.

Every time source goes through the injectable :class:`Clock` protocol
(:class:`MonotonicClock` in production, :class:`SimulatedClock` in tests
and replays), so the whole service is deterministic under pytest with
zero wall-clock sleeps.
"""

from .api import (
    ApiError,
    ApiServer,
    CheckpointResponse,
    DetectionAPI,
    GroupVerdictResponse,
    ResultRequest,
    ResultResponse,
    StatusResponse,
    SubmitClicksRequest,
    SubmitClicksResponse,
    VerdictRequest,
    VerdictResponse,
    serve_api,
)
from .clock import Clock, MonotonicClock, SimulatedClock
from .queue import BoundedEventQueue, ClickEvent, QueueStats
from .redteam import DripOutcome, drip_campaign
from .scheduler import RecheckScheduler, StalenessPolicy
from .service import DetectionService, PumpReport, ServeConfig, ServiceSnapshot

__all__ = [
    "Clock",
    "MonotonicClock",
    "SimulatedClock",
    "ClickEvent",
    "BoundedEventQueue",
    "QueueStats",
    "StalenessPolicy",
    "RecheckScheduler",
    "ServeConfig",
    "DetectionService",
    "PumpReport",
    "ServiceSnapshot",
    "DripOutcome",
    "drip_campaign",
    "DetectionAPI",
    "ApiError",
    "ApiServer",
    "serve_api",
    "SubmitClicksRequest",
    "SubmitClicksResponse",
    "VerdictRequest",
    "VerdictResponse",
    "GroupVerdictResponse",
    "ResultRequest",
    "ResultResponse",
    "StatusResponse",
    "CheckpointResponse",
]
