#include "sim/platform.hpp"

#include <stdexcept>

namespace dtpm::sim {

PlatformDescriptor::PlatformDescriptor()
    : big_opps(power::big_cluster_opp_table().points()),
      little_opps(power::little_cluster_opp_table().points()),
      gpu_opps(power::gpu_opp_table().points()) {}

void PlatformDescriptor::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("platform: empty name");
  }
  if (big_cores != soc::kBigCoreCount ||
      little_cores != soc::kLittleCoreCount) {
    throw std::invalid_argument(
        "platform '" + name + "': the SoC model is fixed at " +
        std::to_string(soc::kBigCoreCount) + "+" +
        std::to_string(soc::kLittleCoreCount) + " cores, got " +
        std::to_string(big_cores) + "+" + std::to_string(little_cores));
  }
  thermal::validate_floorplan_spec(floorplan);
  if (floorplan.core_nodes.size() != std::size_t(big_cores)) {
    throw std::invalid_argument(
        "platform '" + name + "': floorplan declares " +
        std::to_string(floorplan.core_nodes.size()) +
        " core nodes for " + std::to_string(big_cores) + " big cores");
  }
  if (floorplan.sensor_nodes.size() != std::size_t(soc::kBigCoreCount)) {
    // The identified 4-state thermal model and PlatformView::big_temps_c
    // both assume one sensor per big core.
    throw std::invalid_argument(
        "platform '" + name + "': expected " +
        std::to_string(soc::kBigCoreCount) + " sensor nodes, got " +
        std::to_string(floorplan.sensor_nodes.size()));
  }
  if (default_t_max_c <= floorplan.ambient_temp_c()) {
    throw std::invalid_argument(
        "platform '" + name +
        "': default_t_max_c must be above the ambient temperature");
  }
  if (runaway_abort_temp_c < 0.0) {
    throw std::invalid_argument(
        "platform '" + name +
        "': runaway_abort_temp_c must be >= 0 (0 derives t_max + margin)");
  }
  if (runaway_abort_temp_c > 0.0 && runaway_abort_temp_c <= default_t_max_c) {
    throw std::invalid_argument(
        "platform '" + name +
        "': runaway_abort_temp_c must sit above default_t_max_c");
  }
  // OppTable's constructor validates ordering/positivity; constructing the
  // three tables is the check.
  big_opp_table();
  little_opp_table();
  gpu_opp_table();
}

power::OppTable PlatformDescriptor::big_opp_table() const {
  try {
    return power::OppTable(big_opps);
  } catch (const std::exception& e) {
    throw std::invalid_argument("platform '" + name +
                                "': big_opps: " + e.what());
  }
}

power::OppTable PlatformDescriptor::little_opp_table() const {
  try {
    return power::OppTable(little_opps);
  } catch (const std::exception& e) {
    throw std::invalid_argument("platform '" + name +
                                "': little_opps: " + e.what());
  }
}

power::OppTable PlatformDescriptor::gpu_opp_table() const {
  try {
    return power::OppTable(gpu_opps);
  } catch (const std::exception& e) {
    throw std::invalid_argument("platform '" + name +
                                "': gpu_opps: " + e.what());
  }
}

bool same_physics(const PlatformDescriptor& a, const PlatformDescriptor& b) {
  return a.name == b.name && a.description == b.description &&
         thermal::same_physics(a.floorplan, b.floorplan) &&
         a.big_cores == b.big_cores &&
         a.little_cores == b.little_cores && a.big_opps == b.big_opps &&
         a.little_opps == b.little_opps && a.gpu_opps == b.gpu_opps &&
         a.power == b.power && a.perf == b.perf && a.fan == b.fan &&
         a.temp_sensor == b.temp_sensor && a.power_sensor == b.power_sensor &&
         a.platform_load == b.platform_load &&
         a.default_t_max_c == b.default_t_max_c &&
         a.runaway_abort_temp_c == b.runaway_abort_temp_c;
}

bool operator==(const PlatformDescriptor& a, const PlatformDescriptor& b) {
  return same_physics(a, b) && thermal::same_initial_temps(a.floorplan,
                                                           b.floorplan);
}

}  // namespace dtpm::sim
