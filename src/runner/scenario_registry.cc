#include "runner/scenario_registry.h"

#include <stdexcept>
#include <utility>

namespace wlansim {

void ScenarioRegistry::Register(std::unique_ptr<Scenario> scenario) {
  std::string name(scenario->name());
  auto [it, inserted] = scenarios_.emplace(std::move(name), std::move(scenario));
  if (!inserted) {
    throw std::invalid_argument("scenario '" + it->first + "' registered twice");
  }
}

void ScenarioRegistry::Register(std::string name, std::string description,
                                std::vector<ParamSpec> param_specs,
                                FunctionScenario::RunFn fn) {
  Register(std::make_unique<FunctionScenario>(std::move(name), std::move(description),
                                              std::move(param_specs), std::move(fn)));
}

const Scenario* ScenarioRegistry::Find(std::string_view name) const {
  auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : it->second.get();
}

const Scenario& ScenarioRegistry::Get(std::string_view name) const {
  const Scenario* scenario = Find(name);
  if (scenario == nullptr) {
    std::string msg = "unknown scenario '" + std::string(name) + "'; available:";
    for (const std::string& known : Names()) {
      msg += " " + known;
    }
    throw std::invalid_argument(msg);
  }
  return *scenario;
}

std::vector<std::string> ScenarioRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(scenarios_.size());
  for (const auto& [name, scenario] : scenarios_) {
    names.push_back(name);
  }
  return names;
}

ScenarioRegistry& ScenarioRegistry::Global() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    RegisterBuiltinScenarios(*r);
    return r;
  }();
  return *registry;
}

}  // namespace wlansim
