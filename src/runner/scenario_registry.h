// Name → Scenario registry. The global registry is populated with the
// built-in scenario table on first use (an explicit call into scenarios.cc,
// so static-library linking cannot drop the registrations), and examples or
// tests can add their own entries at runtime.

#ifndef WLANSIM_RUNNER_SCENARIO_REGISTRY_H_
#define WLANSIM_RUNNER_SCENARIO_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runner/scenario.h"

namespace wlansim {

class ScenarioRegistry {
 public:
  // Registers a scenario; throws std::invalid_argument on a duplicate name.
  void Register(std::unique_ptr<Scenario> scenario);

  // Terse registration of a function-backed scenario.
  void Register(std::string name, std::string description, std::vector<ParamSpec> param_specs,
                FunctionScenario::RunFn fn);

  // nullptr when unknown.
  const Scenario* Find(std::string_view name) const;

  // The scenario named `name`. Throws std::invalid_argument naming it and
  // listing every registered scenario when unknown.
  const Scenario& Get(std::string_view name) const;

  // Sorted scenario names.
  std::vector<std::string> Names() const;

  // The process-wide registry, pre-populated with the built-in scenarios.
  static ScenarioRegistry& Global();

 private:
  std::map<std::string, std::unique_ptr<Scenario>, std::less<>> scenarios_;
};

// Implemented in scenarios.cc: registers every built-in scenario.
void RegisterBuiltinScenarios(ScenarioRegistry& registry);

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_SCENARIO_REGISTRY_H_
