#ifndef RANKTIES_OBS_EXPORT_H_
#define RANKTIES_OBS_EXPORT_H_

/// \file
/// Export formats for the obs subsystem, no external dependencies:
///
///  * Bare metrics JSON — the `{"counters": ..., "histograms": ...}`
///    object, embedded by the bench harnesses and written by
///    `rank_tool --metrics-out`. Histogram `buckets` lists only non-empty
///    buckets as [inclusive upper edge, count] pairs.
///  * OpenMetrics text exposition — counters, histograms and query-unit
///    stats for Prometheus-family scrapers. Metric names here are fixed
///    families (`rankties_counter_total`, ...) with the rankties-side name
///    carried in a `name`/`unit` label, so arbitrary registry names (dots,
///    quotes, UTF-8) survive via label escaping instead of being mangled
///    into the metric identifier. Terminated by `# EOF` per the
///    OpenMetrics spec; tools/check_openmetrics.py validates the output in
///    CI.
///  * Chrome trace-event / Perfetto JSON — the flight recorder's drained
///    rings: spans as "X" (complete) events, point events as "i" (instant)
///    events, microsecond timestamps, and the recorder's dropped and
///    overwritten counts under "otherData". Loads directly in
///    ui.perfetto.dev and chrome://tracing; `rank_tool --trace` writes it.
///
/// With RANKTIES_OBS_DISABLED every export stays a valid (empty) document,
/// keeping the rank_tool flags functional in every build.

#include <string>

namespace rankties {
namespace obs {

/// The `{"counters": ..., "histograms": ...}` object for the current
/// Registry contents.
std::string MetricsJsonObject();

/// OpenMetrics text exposition of counters, histograms and query units
/// (see file comment for the naming scheme).
std::string OpenMetricsText();

/// Chrome trace-event JSON of FlightRecorder::Global().Drain().
std::string PerfettoJsonDocument();

/// Write helpers: each renders its document and writes it to `path`,
/// returning false on I/O failure (callers must propagate — rank_tool
/// exits nonzero on a failed write).
bool WriteMetricsJson(const std::string& path);
bool WriteOpenMetrics(const std::string& path);
bool WritePerfettoJson(const std::string& path);

}  // namespace obs
}  // namespace rankties

#endif  // RANKTIES_OBS_EXPORT_H_
