// Open, string-keyed registries for the two pluggable layers of the Fig. 3.1
// software stack: thermal policies (PolicyRegistry) and default governors
// (GovernorRegistry). The registries are the one source of truth for what
// can run in a ControlStack: an ExperimentConfig names its policy and
// governor by registry name. Anything registered here is selectable from an
// ExperimentConfig, a JSON config file, or the `dtpm` CLI without touching
// library code:
//
//   namespace {
//   const dtpm::governors::PolicyRegistration kMine{
//       "my-policy",
//       [](const dtpm::governors::PolicyContext& ctx) {
//         return std::make_unique<MyPolicy>(ctx.param("trip_c", 63.0));
//       },
//       "my hand-rolled trip policy"};
//   }  // namespace
//
// The four paper policies (default+fan, no-fan, reactive, dtpm) and the
// ondemand governor are pre-registered. Registration normally happens during
// static initialization (single-threaded); lookups are mutex-guarded because
// BatchRunner workers construct policies concurrently.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "governors/governor.hpp"
#include "power/opp.hpp"

namespace dtpm::core {
struct DtpmParams;
}
namespace dtpm::sysid {
struct IdentifiedPlatformModel;
}

namespace dtpm::governors {

/// Everything a factory may consume at construction time. All pointers are
/// borrowed for the duration of the factory call only.
struct PolicyContext {
  /// Identified platform model; null when the experiment did not load one.
  /// Factories that require it must throw std::invalid_argument.
  const sysid::IdentifiedPlatformModel* model = nullptr;
  /// The config's typed DTPM parameter block (consumed by "dtpm").
  const core::DtpmParams* dtpm = nullptr;
  /// Free-form per-policy parameter bag (ExperimentConfig::policy_params,
  /// filled from the config file's "policy_params" object).
  const std::map<std::string, double>* params = nullptr;

  /// The platform's DVFS tables (null = the built-in Exynos-5410 defaults).
  /// Factories that propose frequencies must construct against these so a
  /// registry policy runs correctly on every registered platform -- use the
  /// resolved accessors below.
  const power::OppTable* big_opps = nullptr;
  const power::OppTable* little_opps = nullptr;
  const power::OppTable* gpu_opps = nullptr;

  /// Bag lookup with a default; the idiom for custom-policy knobs.
  double param(const std::string& key, double fallback) const;

  /// The context's tables, falling back to the default Exynos-5410 ones.
  power::OppTable resolved_big_opps() const;
  power::OppTable resolved_little_opps() const;
  power::OppTable resolved_gpu_opps() const;
};

/// One knob a policy or governor reads from the policy_params bag, with the
/// range its factory accepts. Declared so `dtpm lint` can check params
/// statically -- construction-time throws only fire when the config runs.
struct ParamSpec {
  std::string name;
  double min_value = std::numeric_limits<double>::lowest();
  double max_value = std::numeric_limits<double>::max();
  std::string description;
};

/// What a registered policy/governor declared about its parameter bag.
/// `declared == false` (the default for registrations that pass no schema)
/// means "unknown": the lint layer can only note that params go unchecked.
/// A declared schema with an empty param list means "takes no params" --
/// anything in the bag is then a likely typo.
struct ParamSchema {
  bool declared = false;
  std::vector<ParamSpec> params;

  /// A declared empty schema: "this policy reads nothing from the bag".
  static ParamSchema none() { return {true, {}}; }
};

/// String-keyed thermal-policy registry.
class PolicyRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<ThermalPolicy>(const PolicyContext&)>;

  /// The process-wide registry, with the four paper policies pre-registered.
  static PolicyRegistry& instance();

  /// Registers a policy; throws std::invalid_argument on an empty name, a
  /// null factory, or a duplicate.
  void add(const std::string& name, Factory factory,
           std::string description = "");

  /// Registration with a declared parameter schema (see ParamSchema).
  void add(const std::string& name, Factory factory, std::string description,
           ParamSchema schema);

  /// Removes a registered policy (returns false when absent). Intended for
  /// tests that register throwaway policies.
  bool remove(const std::string& name);

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;  ///< sorted
  std::string description(const std::string& name) const;

  /// The declared parameter schema; `declared == false` when the
  /// registration did not provide one (or the name is unknown).
  ParamSchema param_schema(const std::string& name) const;

  /// Constructs the named policy; throws std::invalid_argument with the
  /// sorted valid names and a nearest-match suggestion on an unknown name.
  std::unique_ptr<ThermalPolicy> make(const std::string& name,
                                      const PolicyContext& context) const;

 private:
  struct Entry {
    Factory factory;
    std::string description;
    ParamSchema schema;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

/// Matching registry for default governors (the bottom layer of Fig. 3.1).
class GovernorRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Governor>(const PolicyContext&)>;

  /// The process-wide registry, with "ondemand" pre-registered.
  static GovernorRegistry& instance();

  void add(const std::string& name, Factory factory,
           std::string description = "");
  void add(const std::string& name, Factory factory, std::string description,
           ParamSchema schema);
  bool remove(const std::string& name);
  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;  ///< sorted
  std::string description(const std::string& name) const;
  ParamSchema param_schema(const std::string& name) const;
  std::unique_ptr<Governor> make(const std::string& name,
                                 const PolicyContext& context) const;

 private:
  struct Entry {
    Factory factory;
    std::string description;
    ParamSchema schema;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

/// Self-registration handle: construct one at namespace scope in any TU to
/// make a policy selectable by name before main() runs.
struct PolicyRegistration {
  PolicyRegistration(const std::string& name, PolicyRegistry::Factory factory,
                     std::string description = "");
  PolicyRegistration(const std::string& name, PolicyRegistry::Factory factory,
                     std::string description, ParamSchema schema);
};

/// Same for default governors.
struct GovernorRegistration {
  GovernorRegistration(const std::string& name,
                       GovernorRegistry::Factory factory,
                       std::string description = "");
  GovernorRegistration(const std::string& name,
                       GovernorRegistry::Factory factory,
                       std::string description, ParamSchema schema);
};

}  // namespace dtpm::governors
