"""$heriff as a service: a long-lived, stdlib-only HTTP serving layer.

The paper's system is *on-demand* -- users submit a URL and get a
price-discrimination verdict back -- so this package turns the batch
machinery into a service: single checks against a long-lived serving
context whose :class:`~repro.core.burstcache.BurstCache` acts as the
serving cache (the one place the burst memo lives), and campaign *jobs*
that run memo-free on background threads under the checkpoint layer so
a killed or restarted service resumes them and still produces
byte-identical results.

Hexagonal layout (ports inward, adapters outward):

* :mod:`repro.serve.service` -- :class:`SheriffService`, the
  transport-free core (checks, job registry, health);
* :mod:`repro.serve.jobs` -- durable job specs + restart-safe registry;
* :mod:`repro.serve.app` -- the HTTP adapter
  (:class:`~repro.serve.app.SheriffHTTPServer`, thin routes);
* :mod:`repro.serve.wire` -- composition root (:func:`build_app`) and
  the CLI entry (:func:`serve`).

See docs/API.md for the endpoint table and docs/ARCHITECTURE.md for the
serving-layer design notes.
"""

from repro.serve.jobs import Job, JobRegistry, JobSpec
from repro.serve.service import (
    BadRequest,
    Conflict,
    NotFound,
    ServiceError,
    SheriffService,
    encode_report,
)
from repro.serve.wire import ServeConfig, build_app, serve

__all__ = [
    "BadRequest",
    "Conflict",
    "Job",
    "JobRegistry",
    "JobSpec",
    "NotFound",
    "ServeConfig",
    "ServiceError",
    "SheriffService",
    "build_app",
    "encode_report",
    "serve",
]
