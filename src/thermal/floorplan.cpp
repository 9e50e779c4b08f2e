#include "thermal/floorplan.hpp"

#include <stdexcept>
#include <unordered_map>

namespace dtpm::thermal {

namespace {

/// Name -> index over the spec's nodes; duplicate or empty names throw.
std::unordered_map<std::string, std::size_t> node_index_map(
    const FloorplanSpec& spec) {
  std::unordered_map<std::string, std::size_t> map;
  map.reserve(spec.nodes.size());
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    const std::string& name = spec.nodes[i].name;
    if (name.empty()) {
      throw std::invalid_argument("floorplan: node " + std::to_string(i) +
                                  " has an empty name");
    }
    if (!map.emplace(name, i).second) {
      throw std::invalid_argument("floorplan: duplicate node name '" + name +
                                  "'");
    }
  }
  return map;
}

std::size_t resolve(const std::unordered_map<std::string, std::size_t>& map,
                    const std::string& name, const char* role) {
  const auto it = map.find(name);
  if (it == map.end()) {
    throw std::invalid_argument("floorplan: " + std::string(role) +
                                " references unknown node '" + name + "'");
  }
  return it->second;
}

}  // namespace

double FloorplanSpec::ambient_temp_c() const {
  for (const FloorplanNodeSpec& node : nodes) {
    if (node.is_boundary) return node.initial_temp_c;
  }
  throw std::logic_error("FloorplanSpec: no boundary (ambient) node");
}

bool FloorplanSpec::has_fan_edge() const {
  for (const FloorplanEdgeSpec& edge : edges) {
    if (edge.fan_modulated) return true;
  }
  return false;
}

bool operator==(const FloorplanEdgeSpec& a, const FloorplanEdgeSpec& b) {
  return a.node_a == b.node_a && a.node_b == b.node_b &&
         a.conductance_w_per_k == b.conductance_w_per_k &&
         a.fan_modulated == b.fan_modulated;
}

bool same_physics(const FloorplanSpec& a, const FloorplanSpec& b) {
  if (a.nodes.size() != b.nodes.size()) return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const FloorplanNodeSpec& na = a.nodes[i];
    const FloorplanNodeSpec& nb = b.nodes[i];
    if (na.name != nb.name ||
        na.capacitance_j_per_k != nb.capacitance_j_per_k ||
        na.is_boundary != nb.is_boundary) {
      return false;
    }
  }
  return a.edges == b.edges && a.core_nodes == b.core_nodes &&
         a.little_node == b.little_node && a.gpu_node == b.gpu_node &&
         a.mem_node == b.mem_node && a.sensor_nodes == b.sensor_nodes;
}

bool same_initial_temps(const FloorplanSpec& a, const FloorplanSpec& b) {
  if (a.nodes.size() != b.nodes.size()) return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (a.nodes[i].initial_temp_c != b.nodes[i].initial_temp_c) return false;
  }
  return true;
}

bool operator==(const FloorplanSpec& a, const FloorplanSpec& b) {
  return same_physics(a, b) && same_initial_temps(a, b);
}

void validate_floorplan_spec(const FloorplanSpec& spec) {
  const auto map = node_index_map(spec);

  std::size_t boundary_count = 0;
  for (const FloorplanNodeSpec& node : spec.nodes) {
    if (node.is_boundary) ++boundary_count;
  }
  if (boundary_count != 1) {
    throw std::invalid_argument(
        "floorplan: expected exactly one boundary (ambient) node, got " +
        std::to_string(boundary_count));
  }

  std::size_t fan_edges = 0;
  for (std::size_t i = 0; i < spec.edges.size(); ++i) {
    const std::string where = "edge " + std::to_string(i);
    resolve(map, spec.edges[i].node_a, where.c_str());
    resolve(map, spec.edges[i].node_b, where.c_str());
    if (spec.edges[i].fan_modulated) ++fan_edges;
  }
  if (fan_edges > 1) {
    throw std::invalid_argument(
        "floorplan: more than one fan-modulated edge");
  }

  if (spec.core_nodes.empty()) {
    throw std::invalid_argument("floorplan: core_nodes must not be empty");
  }
  if (spec.sensor_nodes.empty()) {
    throw std::invalid_argument("floorplan: sensor_nodes must not be empty");
  }
  auto check_role = [&](const std::string& name, const char* role) {
    const std::size_t i = resolve(map, name, role);
    if (spec.nodes[i].is_boundary) {
      throw std::invalid_argument("floorplan: " + std::string(role) +
                                  " must not be the boundary node ('" + name +
                                  "')");
    }
  };
  for (const std::string& name : spec.core_nodes) {
    check_role(name, "core_nodes");
  }
  check_role(spec.little_node, "little_node");
  check_role(spec.gpu_node, "gpu_node");
  check_role(spec.mem_node, "mem_node");
  for (const std::string& name : spec.sensor_nodes) {
    check_role(name, "sensor_nodes");
  }
}

Floorplan build_floorplan(const FloorplanSpec& spec) {
  validate_floorplan_spec(spec);
  const auto map = node_index_map(spec);

  std::vector<ThermalNode> nodes;
  nodes.reserve(spec.nodes.size());
  for (const FloorplanNodeSpec& n : spec.nodes) {
    ThermalNode node;
    node.name = n.name;
    node.capacitance_j_per_k = n.capacitance_j_per_k;
    node.initial_temp_c = n.initial_temp_c;
    node.is_boundary = n.is_boundary;
    nodes.push_back(std::move(node));
  }

  std::vector<ThermalEdge> edges;
  edges.reserve(spec.edges.size());
  std::size_t fan_edge = Floorplan::kNoFanEdge;
  for (const FloorplanEdgeSpec& e : spec.edges) {
    if (e.fan_modulated) fan_edge = edges.size();
    edges.push_back(
        {map.at(e.node_a), map.at(e.node_b), e.conductance_w_per_k});
  }

  std::vector<std::size_t> core_index;
  core_index.reserve(spec.core_nodes.size());
  for (const std::string& name : spec.core_nodes) {
    core_index.push_back(map.at(name));
  }
  std::size_t ambient_index = 0;
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    if (spec.nodes[i].is_boundary) ambient_index = i;
  }
  std::vector<std::size_t> sensor_index;
  sensor_index.reserve(spec.sensor_nodes.size());
  for (const std::string& name : spec.sensor_nodes) {
    sensor_index.push_back(map.at(name));
  }
  return Floorplan{RcNetwork(std::move(nodes), std::move(edges)),
                   fan_edge,
                   spec,
                   std::move(core_index),
                   map.at(spec.little_node),
                   map.at(spec.gpu_node),
                   map.at(spec.mem_node),
                   ambient_index,
                   std::move(sensor_index)};
}

void Floorplan::assemble_node_power_into(
    const std::array<double, 4>& big_core_power_w,
    const power::ResourceVector& rail_power_w,
    std::vector<double>& node_power_out) const {
  node_power_out.assign(network.node_count(), 0.0);
  for (std::size_t c = 0;
       c < big_core_power_w.size() && c < core_node_index.size(); ++c) {
    node_power_out[core_node_index[c]] = big_core_power_w[c];
  }
  node_power_out[little_node_index] =
      rail_power_w[power::resource_index(power::Resource::kLittleCluster)];
  node_power_out[gpu_node_index] =
      rail_power_w[power::resource_index(power::Resource::kGpu)];
  node_power_out[mem_node_index] =
      rail_power_w[power::resource_index(power::Resource::kMem)];
}

std::array<std::size_t, 4> Floorplan::big_core_nodes() {
  return {node_index(FloorplanNode::kBig0), node_index(FloorplanNode::kBig1),
          node_index(FloorplanNode::kBig2), node_index(FloorplanNode::kBig3)};
}

const std::vector<std::size_t>& Floorplan::big_core_node_indices() {
  static const std::vector<std::size_t> kIndices = [] {
    const auto nodes = big_core_nodes();
    return std::vector<std::size_t>{nodes.begin(), nodes.end()};
  }();
  return kIndices;
}

bool operator==(const FloorplanParams& a, const FloorplanParams& b) {
  return a.big_core_capacitance == b.big_core_capacitance &&
         a.little_cluster_capacitance == b.little_cluster_capacitance &&
         a.gpu_capacitance == b.gpu_capacitance &&
         a.mem_capacitance == b.mem_capacitance &&
         a.case_capacitance == b.case_capacitance &&
         a.board_capacitance == b.board_capacitance &&
         a.big_to_big_adjacent == b.big_to_big_adjacent &&
         a.big_to_big_diagonal == b.big_to_big_diagonal &&
         a.big_to_case == b.big_to_case && a.big_to_little == b.big_to_little &&
         a.little_to_case == b.little_to_case &&
         a.gpu_to_case == b.gpu_to_case && a.gpu_to_big2 == b.gpu_to_big2 &&
         a.gpu_to_big3 == b.gpu_to_big3 && a.gpu_to_mem == b.gpu_to_mem &&
         a.mem_to_case == b.mem_to_case && a.little_to_gpu == b.little_to_gpu &&
         a.case_to_board == b.case_to_board &&
         a.board_to_ambient_fan_off == b.board_to_ambient_fan_off &&
         a.ambient_temp_c == b.ambient_temp_c &&
         a.initial_temp_c == b.initial_temp_c &&
         a.board_initial_temp_c == b.board_initial_temp_c;
}

std::vector<double> assemble_node_power(
    const std::array<double, 4>& big_core_power_w,
    const power::ResourceVector& rail_power_w) {
  std::vector<double> node_power;
  assemble_node_power_into(big_core_power_w, rail_power_w, node_power);
  return node_power;
}

void assemble_node_power_into(const std::array<double, 4>& big_core_power_w,
                              const power::ResourceVector& rail_power_w,
                              std::vector<double>& node_power_out) {
  node_power_out.assign(kFloorplanNodeCount, 0.0);
  for (std::size_t c = 0; c < big_core_power_w.size(); ++c) {
    node_power_out[node_index(FloorplanNode::kBig0) + c] = big_core_power_w[c];
  }
  node_power_out[node_index(FloorplanNode::kLittleCluster)] =
      rail_power_w[power::resource_index(power::Resource::kLittleCluster)];
  node_power_out[node_index(FloorplanNode::kGpu)] =
      rail_power_w[power::resource_index(power::Resource::kGpu)];
  node_power_out[node_index(FloorplanNode::kMem)] =
      rail_power_w[power::resource_index(power::Resource::kMem)];
}

FloorplanSpec default_floorplan_spec(const FloorplanParams& p) {
  FloorplanSpec spec;
  spec.nodes.resize(kFloorplanNodeCount);
  auto set = [&](FloorplanNode n, const char* name, double cap,
                 bool boundary = false) {
    FloorplanNodeSpec& node = spec.nodes[node_index(n)];
    node.name = name;
    node.capacitance_j_per_k = cap;
    node.initial_temp_c = boundary ? p.ambient_temp_c : p.initial_temp_c;
    node.is_boundary = boundary;
  };
  set(FloorplanNode::kBig0, "big0", p.big_core_capacitance);
  set(FloorplanNode::kBig1, "big1", p.big_core_capacitance);
  set(FloorplanNode::kBig2, "big2", p.big_core_capacitance);
  set(FloorplanNode::kBig3, "big3", p.big_core_capacitance);
  set(FloorplanNode::kLittleCluster, "little", p.little_cluster_capacitance);
  set(FloorplanNode::kGpu, "gpu", p.gpu_capacitance);
  set(FloorplanNode::kMem, "mem", p.mem_capacitance);
  set(FloorplanNode::kCase, "case", p.case_capacitance);
  set(FloorplanNode::kBoard, "board", p.board_capacitance);
  spec.nodes[node_index(FloorplanNode::kBoard)].initial_temp_c =
      p.board_initial_temp_c;
  set(FloorplanNode::kAmbient, "ambient", 1.0, /*boundary=*/true);

  auto link = [&](const char* a, const char* b, double g,
                  bool fan_modulated = false) {
    spec.edges.push_back({a, b, g, fan_modulated});
  };
  // Big-core 2x2 grid.
  link("big0", "big1", p.big_to_big_adjacent);
  link("big2", "big3", p.big_to_big_adjacent);
  link("big0", "big2", p.big_to_big_adjacent);
  link("big1", "big3", p.big_to_big_adjacent);
  link("big0", "big3", p.big_to_big_diagonal);
  link("big1", "big2", p.big_to_big_diagonal);
  // Die-to-case spreading.
  link("big0", "case", p.big_to_case);
  link("big1", "case", p.big_to_case);
  link("big2", "case", p.big_to_case);
  link("big3", "case", p.big_to_case);
  link("little", "case", p.little_to_case);
  link("gpu", "case", p.gpu_to_case);
  link("mem", "case", p.mem_to_case);
  // Lateral die coupling.
  link("big0", "little", p.big_to_little);
  link("big1", "little", p.big_to_little);
  link("big2", "little", p.big_to_little);
  link("big3", "little", p.big_to_little);
  link("gpu", "big2", p.gpu_to_big2);
  link("gpu", "big3", p.gpu_to_big3);
  link("gpu", "mem", p.gpu_to_mem);
  link("little", "gpu", p.little_to_gpu);
  // Case spreads into the board; the fan modulates board-to-ambient
  // convection.
  link("case", "board", p.case_to_board);
  link("board", "ambient", p.board_to_ambient_fan_off, /*fan_modulated=*/true);

  spec.core_nodes = {"big0", "big1", "big2", "big3"};
  spec.little_node = "little";
  spec.gpu_node = "gpu";
  spec.mem_node = "mem";
  spec.sensor_nodes = spec.core_nodes;
  return spec;
}

Floorplan make_default_floorplan(const FloorplanParams& p) {
  return build_floorplan(default_floorplan_spec(p));
}

}  // namespace dtpm::thermal
