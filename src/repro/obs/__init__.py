"""Unified observability: metrics registry + causal span tracing.

See :mod:`repro.obs.core` for the span model and attach machinery,
:mod:`repro.obs.export` for the Chrome-trace / prometheus / flat-profile
exporters, and :mod:`repro.obs.bundle` for per-run bundles and the
``repro-nfs trace`` trace points.  ``docs/observability.md`` has the
full metric catalogue.
"""

from .. import _lazy_surface

#: Public name -> the submodule that defines it, imported on first read,
#: so a run that never exports a trace never loads the exporters.
_EXPORTS = {
    "DISABLED": ".core",
    "Observability": ".core",
    "ObsSession": ".core",
    "active_session": ".core",
    "attach": ".core",
    "attach_if_active": ".core",
    "observed": ".core",
    "build_spans": ".export",
    "chrome_trace": ".export",
    "flat_profile": ".export",
    "prometheus_text": ".export",
    "span_children": ".export",
    "span_descendants": ".export",
    "validate_chrome_trace": ".export",
    "Counter": ".metrics",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "render_ascii": ".report",
    "render_html": ".report",
    "sparkline": ".report",
    "DEFAULT_SLOS": ".slo",
    "SLO_REPORT_SCHEMA": ".slo",
    "SloSpec": ".slo",
    "evaluate_slos": ".slo",
    "DEFAULT_RETENTION": ".timeseries",
    "DEFAULT_WINDOW_NS": ".timeseries",
    "TIMELINE_SCHEMA": ".timeseries",
    "LogLinearHistogram": ".timeseries",
    "TimelineRegistry": ".timeseries",
    "WindowedCounter": ".timeseries",
    "WindowedGauge": ".timeseries",
    "WindowedHistogram": ".timeseries",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_surface(__name__, _EXPORTS)
