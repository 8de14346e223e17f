"""Prediction-as-a-service: the ``repro serve`` HTTP server.

The paper's headline claim is that a trained NAPEL model *replaces*
simulation (~256x faster per prediction) — which only pays off when
prediction is deployable as a long-lived concurrent service instead of
a fork-load-predict-exit CLI call.  This package is that service: HTTP
on asyncio streams (no ``http.server``), request bodies decoded by
``orjson``.  Outside this package only
:meth:`repro.core.CampaignCache.save` imports it, on use and to encode:
every decoder outside this package stays the stdlib's, because orjson
3.8 has no nesting limit of its own:

* :mod:`registry` — a name-keyed registry of preloaded, verified v2
  model artifacts (mirroring the memory-backend registry pattern), with
  warm-standby hot reload: fresh artifacts load and verify in the
  background and swap in atomically while in-flight requests finish on
  the old models;
* :mod:`protocol` — the JSON request/response codec: incoming feature
  rows are validated against the artifact's embedded
  :class:`~repro.schema.FeatureSchema` (structured 422 naming the
  missing/extra/moved columns, or ``align=true`` projection by name);
* :mod:`batcher` — microbatching: concurrent ``POST /predict`` requests
  that arrive while the model is busy are answered by *one* vectorized
  ``predict_labels`` matrix call, fanned back out per request;
* :mod:`server` — the asyncio HTTP/1.1 server (``/predict``,
  ``/healthz``, ``/metrics``, ``/models``), graceful shutdown that
  drains in-flight requests, per-request metrics through
  :mod:`repro.obs`;
* :mod:`client` — a minimal blocking client for tests, benchmarks and
  scripts.

See ``docs/API.md`` ("Serving") and ``README.md`` for the quickstart.
"""

from .batcher import MicroBatcher
from .client import ServeClient, ServeClientError
from .protocol import ProtocolError, error_body
from .registry import ModelRegistry, ServedModel, parse_model_specs
from .server import PredictionServer, ServerThread

__all__ = [
    "MicroBatcher",
    "ModelRegistry",
    "PredictionServer",
    "ProtocolError",
    "ServeClient",
    "ServeClientError",
    "ServedModel",
    "ServerThread",
    "error_body",
    "parse_model_specs",
]
