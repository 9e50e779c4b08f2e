// JSON round-trip and error paths of the platform-as-data layer: descriptor
// serialization identity, "platform" selection in experiment configs (by
// registry name and fully inline), and the platforms sweep axis.
#include <gtest/gtest.h>

#include <string>

#include "sim/config_io.hpp"
#include "sim/platform_registry.hpp"
#include "util/json.hpp"

namespace dtpm {
namespace {

using sim::ConfigError;
using sim::ExperimentConfig;
using sim::PlatformDescriptor;
using util::JsonValue;

JsonValue parse(const std::string& text) { return util::json_parse(text); }

/// Expects `fn` to throw ConfigError whose path matches exactly.
template <typename Fn>
std::string expect_config_error(Fn&& fn, const std::string& path) {
  try {
    fn();
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.path(), path);
    return e.detail();
  }
  ADD_FAILURE() << "expected ConfigError at " << path;
  return "";
}

// --- descriptor round-trip ---------------------------------------------------

TEST(PlatformIo, RoundTripIdentityForEveryRegisteredPlatform) {
  const sim::PlatformRegistry& registry = sim::PlatformRegistry::instance();
  for (const std::string& name : registry.names()) {
    const PlatformDescriptor& original = *registry.get(name);
    // parse(write(d)) == d, through the actual text representation.
    const std::string text = util::json_write(sim::to_json(original), 2);
    const PlatformDescriptor reparsed =
        sim::platform_from_json(util::json_parse(text));
    EXPECT_TRUE(reparsed == original) << "platform " << name;
  }
}

TEST(PlatformIo, PartialDescriptorInheritsOdroidDefaults) {
  const PlatformDescriptor d = sim::platform_from_json(
      parse(R"({"name": "tweaked", "default_t_max_c": 70.0})"));
  EXPECT_EQ(d.name, "tweaked");
  EXPECT_DOUBLE_EQ(d.default_t_max_c, 70.0);
  // Everything else is the Odroid.
  PlatformDescriptor reference;
  reference.name = "tweaked";
  reference.default_t_max_c = 70.0;
  EXPECT_TRUE(d == reference);
}

// --- error paths -------------------------------------------------------------

TEST(PlatformIo, FloorplanErrorsCarryExactPaths) {
  // An edge referencing an unknown node pins the offending member.
  const std::string detail = expect_config_error(
      [] {
        sim::platform_from_json(parse(R"({
          "floorplan": {
            "nodes": [
              {"name": "c0"}, {"name": "c1"}, {"name": "c2"}, {"name": "c3"},
              {"name": "l"}, {"name": "g"}, {"name": "m"},
              {"name": "amb", "boundary": true}
            ],
            "edges": [
              {"a": "c0", "b": "c1", "conductance_w_per_k": 0.5},
              {"a": "c1", "b": "c2", "conductance_w_per_k": 0.5},
              {"a": "c2", "b": "c3", "conductance_w_per_k": 0.5},
              {"a": "c3", "b": "c9", "conductance_w_per_k": 0.5}
            ],
            "core_nodes": ["c0", "c1", "c2", "c3"],
            "little_node": "l", "gpu_node": "g", "mem_node": "m",
            "sensor_nodes": ["c0", "c1", "c2", "c3"]
          }
        })"),
                                "$.platform");
      },
      "$.platform.floorplan.edges[3].b");
  EXPECT_NE(detail.find("unknown node 'c9'"), std::string::npos);
  EXPECT_NE(detail.find("did you mean 'c0'?"), std::string::npos);

  expect_config_error(
      [] {
        sim::platform_from_json(
            parse(R"({"floorplan": {"edges": []}})"), "$.platform");
      },
      "$.platform.floorplan.nodes");

  expect_config_error(
      [] {
        sim::platform_from_json(
            parse(R"({"big_opps": [{"frequency_hz": -1.0}]})"), "$.platform");
      },
      "$.platform.big_opps[0].frequency_hz");

  // Unknown members get the usual did-you-mean treatment.
  expect_config_error(
      [] {
        sim::platform_from_json(parse(R"({"descripton": "typo"})"),
                                "$.platform");
      },
      "$.platform.descripton");
}

TEST(PlatformIo, InvalidDescriptorFailsValidationWithPath) {
  // Structurally valid JSON, but the descriptor itself is inconsistent
  // (8 big cores against the fixed 4+4 SoC model).
  const std::string detail = expect_config_error(
      [] {
        sim::platform_from_json(parse(R"({"big_cores": 8})"), "$.platform");
      },
      "$.platform");
  EXPECT_NE(detail.find("invalid platform"), std::string::npos);
}

// --- experiment config selection ---------------------------------------------

TEST(PlatformIo, ExperimentSelectsPlatformByName) {
  const ExperimentConfig config = sim::experiment_from_json(
      parse(R"({"benchmark": "crc32", "platform": "dragon"})"));
  ASSERT_NE(config.platform, nullptr);
  EXPECT_EQ(config.platform->name, "dragon");
  // The platform's recommended constraint rides along...
  EXPECT_DOUBLE_EQ(config.dtpm.t_max_c, 70.0);

  // ...unless the document overrides it explicitly; other dtpm members keep
  // the platform-adjusted defaults.
  const ExperimentConfig overridden = sim::experiment_from_json(parse(R"({
    "benchmark": "crc32", "platform": "compact",
    "dtpm": {"t_max_c": 55.0}
  })"));
  EXPECT_DOUBLE_EQ(overridden.dtpm.t_max_c, 55.0);

  expect_config_error(
      [] {
        sim::experiment_from_json(
            parse(R"({"platform": "odroid"})"));
      },
      "$.platform");
}

TEST(PlatformIo, ExperimentRoundTripsPlatformSelection) {
  ExperimentConfig config;
  sim::set_platform(config, "compact");
  const JsonValue json = sim::to_json(config);
  // Registered descriptors serialize as their compact name...
  const JsonValue* platform = json.find("platform");
  ASSERT_NE(platform, nullptr);
  ASSERT_TRUE(platform->is_string());
  EXPECT_EQ(platform->as_string(), "compact");
  const ExperimentConfig reparsed = sim::experiment_from_json(json);
  ASSERT_NE(reparsed.platform, nullptr);
  EXPECT_TRUE(*reparsed.platform == *config.platform);

  // ...while a customized one rides along fully inline and still
  // round-trips losslessly.
  auto custom = sim::dragon_platform();
  custom.name = "dragon-oc";
  custom.power.big_core_alpha_c_max = 0.35e-9;
  ExperimentConfig custom_config;
  sim::set_platform(custom_config,
                    std::make_shared<const PlatformDescriptor>(custom));
  const JsonValue custom_json = sim::to_json(custom_config);
  ASSERT_TRUE(custom_json.find("platform")->is_object());
  const ExperimentConfig custom_reparsed =
      sim::experiment_from_json(custom_json);
  ASSERT_NE(custom_reparsed.platform, nullptr);
  EXPECT_TRUE(*custom_reparsed.platform == custom);
}

// --- sweep axis --------------------------------------------------------------

TEST(PlatformIo, SweepPlatformsAxisParsesAndExpands) {
  const sim::SweepSpec spec = sim::sweep_from_json(parse(R"({
    "base": {"benchmark": "crc32"},
    "platforms": ["odroid-xu-e", "dragon", "compact"],
    "policies": ["no-fan", "reactive"],
    "seeds": [1, 2]
  })"));
  ASSERT_EQ(spec.platforms.size(), 3u);
  const std::vector<ExperimentConfig> configs = spec.expand();
  EXPECT_EQ(configs.size(), 3u * 2u * 2u);
  // Row-major: benchmark, then platform, then policy, then seed.
  EXPECT_EQ(configs[0].platform->name, "odroid-xu-e");
  EXPECT_EQ(configs[4].platform->name, "dragon");
  EXPECT_EQ(configs[8].platform->name, "compact");
  // Each platform's runs adopt its constraint.
  EXPECT_DOUBLE_EQ(configs[0].dtpm.t_max_c, 63.0);
  EXPECT_DOUBLE_EQ(configs[4].dtpm.t_max_c, 70.0);
  EXPECT_DOUBLE_EQ(configs[8].dtpm.t_max_c, 58.0);

  expect_config_error(
      [] {
        sim::sweep_from_json(parse(R"({"platforms": ["dargon"]})"));
      },
      "$.platforms[0]");

  // The round trip keeps the axis.
  const sim::SweepSpec reparsed = sim::sweep_from_json(sim::to_json(spec));
  EXPECT_EQ(reparsed.platforms, spec.platforms);
}

TEST(PlatformIo, ScenarioSweepTakesPlatformAxis) {
  const sim::SweepSpec spec = sim::sweep_from_json(parse(R"({
    "base": {"record_trace": false},
    "platforms": ["dragon", "compact"],
    "policies": ["no-fan"],
    "scenarios": {"families": ["bursty"], "seeds": [1, 2]}
  })"));
  const std::vector<ExperimentConfig> configs = spec.expand();
  EXPECT_EQ(configs.size(), 2u * 1u * 2u);
  EXPECT_EQ(configs[0].platform->name, "dragon");
  EXPECT_EQ(configs[1].platform->name, "compact");
}

}  // namespace
}  // namespace dtpm
