// Fleet-spec lint (L7xx): distribution hygiene, scale warnings, axis-name
// validation, and a physical sanity check of the sampled ambient range
// against each platform's thermal limit -- plus the experiment passes over
// the base config. Mirrors serve's validate_distributions backstop, but
// with stable codes, document paths, and did-you-mean suggestions.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "sim/platform_registry.hpp"
#include "util/json.hpp"
#include "util/names.hpp"
#include "workload/scenario.hpp"

namespace dtpm::lint {

namespace {

/// Sampled-device count past which retained traces draw the L702 blowup
/// warning; matches the sweep pass's per-run trace threshold (L306).
constexpr std::uint64_t kTracedDevicesWarning = 32;

std::vector<std::string> standard_family_names() {
  std::vector<std::string> names;
  for (workload::ScenarioFamily f : workload::all_scenario_families()) {
    names.emplace_back(workload::to_string(f));
  }
  return names;
}

/// L701: an axis written as an explicitly empty array. Empty axes fall back
/// to defaults (base platform / all families) when *omitted*, so an empty
/// literal is almost always an editing accident -- and only the source
/// document can tell the two apart.
void check_empty_axis(const util::JsonValue& json, const std::string& member,
                      const std::string& path, util::DiagnosticSink& sink) {
  const util::JsonValue* v = json.find(member);
  if (v != nullptr && v->is_array() && v->as_array().empty()) {
    sink.error("L701", path + "." + member,
               "explicitly empty '" + member +
                   "' axis; the default applies when the member is omitted "
                   "-- delete it or add entries");
  }
}

/// L701 (weights) + L703 (names): one weighted axis checked in place.
void check_axis(const std::vector<serve::FleetWeight>& axis,
                const std::string& member, const std::string& kind,
                const std::vector<std::string>& valid, const std::string& path,
                util::DiagnosticSink& sink) {
  double total = 0.0;
  for (std::size_t i = 0; i < axis.size(); ++i) {
    const std::string entry_path =
        path + "." + member + "[" + std::to_string(i) + "]";
    if (axis[i].weight <= 0.0) {
      sink.error("L701", entry_path,
                 "weight of '" + axis[i].name +
                     "' must be positive; a zero weight silently removes the "
                     "entry, a negative one corrupts the draw");
    }
    total += axis[i].weight;
    if (std::find(valid.begin(), valid.end(), axis[i].name) == valid.end()) {
      sink.error("L703", entry_path,
                 util::unknown_name_message(kind, axis[i].name, valid));
    }
  }
  if (!axis.empty() && total <= 0.0) {
    sink.error("L701", path + "." + member,
               "'" + member + "' weights sum to zero; nothing can be drawn");
  }
}

void check_range(const serve::FleetRange& range, const std::string& member,
                 const std::string& path, util::DiagnosticSink& sink) {
  if (range.hi < range.lo) {
    sink.error("L701", path + "." + member,
               "'" + member + "' range is inverted (hi " +
                   std::to_string(range.hi) + " < lo " +
                   std::to_string(range.lo) + ")");
  }
}

}  // namespace

void lint_fleet(const serve::FleetSpec& spec, const util::JsonValue* json,
                const std::string& path, util::DiagnosticSink& sink,
                const LintOptions& options) {
  lint_experiment(spec.base, path + ".base", sink, options);

  if (json != nullptr && json->is_object()) {
    check_empty_axis(*json, "platforms", path, sink);
    check_empty_axis(*json, "families", path, sink);
  }

  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  check_axis(spec.platforms, "platforms", "platform", registry.names(), path,
             sink);
  check_axis(spec.families, "families", "scenario family",
             standard_family_names(), path, sink);

  check_range(spec.ambient_c, "ambient_c", path, sink);
  check_range(spec.background_duty, "background_duty", path, sink);
  if (spec.background_duty.lo < 0.0 || spec.background_duty.hi > 1.0) {
    sink.error("L701", path + ".background_duty",
               "'background_duty' must lie within [0, 1]");
  }

  // L704: an ambient range reaching a sampled platform's thermal limit --
  // every device drawn near the top of the range starts in (or instantly
  // enters) violation, which no policy can manage away.
  const std::vector<serve::FleetWeight> platforms =
      spec.platforms.empty()
          ? std::vector<serve::FleetWeight>{{spec.base.platform->name, 1.0}}
          : spec.platforms;
  for (const serve::FleetWeight& e : platforms) {
    if (!registry.contains(e.name)) continue;  // L703 already reported
    const double t_max = registry.get(e.name)->default_t_max_c;
    if (spec.ambient_c.hi >= t_max) {
      sink.error("L704", path + ".ambient_c",
                 "ambient_c reaches " + std::to_string(spec.ambient_c.hi) +
                     " C, at or above platform '" + e.name +
                     "' t_max of " + std::to_string(t_max) +
                     " C; devices sampled there are unconditionally in "
                     "thermal violation");
    }
  }

  // L702: retained traces across a fleet-scale expansion.
  if (spec.retain_traces && spec.device_count > kTracedDevicesWarning) {
    sink.warning("L702", path + ".retain_traces",
                 "retain_traces keeps a full trace for each of the " +
                     std::to_string(spec.device_count) +
                     " sampled devices; that defeats the memory-flat "
                     "aggregation -- set it false and re-run single devices "
                     "when a trace is needed");
  }

  // L705: a wave larger than the fleet is harmless but suggests the two
  // knobs were swapped.
  if (spec.wave_size > spec.device_count) {
    sink.note("L705", path + ".wave_size",
              "wave_size " + std::to_string(spec.wave_size) +
                  " exceeds device_count " +
                  std::to_string(spec.device_count) +
                  "; the fleet runs as a single wave");
  }
}

}  // namespace dtpm::lint
