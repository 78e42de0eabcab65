#include "tuner/registry.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "tuner/extras/auc_bandit.hpp"
#include "tuner/extras/pso.hpp"
#include "tuner/extras/simulated_annealing.hpp"
#include "tuner/forest/rf_tuner.hpp"
#include "tuner/ga/genetic.hpp"
#include "tuner/gp/bo_gp.hpp"
#include "tuner/random_search.hpp"
#include "tuner/tpe/bo_tpe.hpp"

namespace repro::tuner {
namespace {

std::string canonical(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (c == ' ' || c == '_' || c == '-') continue;
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

std::unique_ptr<SearchAlgorithm> make_algorithm(const std::string& name) {
  const std::string id = canonical(name);
  if (id == "rs" || id == "random" || id == "randomsearch") {
    return std::make_unique<RandomSearch>();
  }
  if (id == "rf" || id == "randomforest") {
    return std::make_unique<RandomForestTuner>();
  }
  if (id == "ga" || id == "genetic") {
    return std::make_unique<GeneticAlgorithm>();
  }
  if (id == "bogp" || id == "gp") {
    return std::make_unique<BoGp>();
  }
  if (id == "botpe" || id == "tpe") {
    return std::make_unique<BoTpe>();
  }
  if (id == "sa" || id == "simulatedannealing") {
    return std::make_unique<SimulatedAnnealing>();
  }
  if (id == "pso" || id == "particleswarm") {
    return std::make_unique<ParticleSwarm>();
  }
  if (id == "bandit" || id == "aucbandit" || id == "opentuner") {
    return std::make_unique<AucBandit>();
  }
  throw std::out_of_range("unknown algorithm: " + name);
}

bool is_algorithm(const std::string& name) {
  try {
    (void)make_algorithm(name);
    return true;
  } catch (const std::out_of_range&) {
    return false;
  }
}

std::unique_ptr<SearchAlgorithm> make_algorithm(const std::string& name,
                                                const PriorHandle& prior) {
  const std::string id = canonical(name);
  if (warm_start::has_rows(prior)) {
    if (id == "rf" || id == "randomforest") {
      RfTunerOptions options;
      options.prior = prior;
      return std::make_unique<RandomForestTuner>(options);
    }
    if (id == "bogp" || id == "gp") {
      BoGpOptions options;
      options.prior = prior;
      return std::make_unique<BoGp>(options);
    }
    if (id == "botpe" || id == "tpe") {
      BoTpeOptions options;
      options.prior = prior;
      return std::make_unique<BoTpe>(options);
    }
  }
  return make_algorithm(name);
}

bool supports_warm_start(const std::string& name) {
  const std::string id = canonical(name);
  (void)make_algorithm(name);  // reject unknown names the same way
  return id == "rf" || id == "randomforest" || id == "bogp" || id == "gp" ||
         id == "botpe" || id == "tpe";
}

const std::vector<std::string>& paper_algorithms() {
  static const std::vector<std::string> ids = {"rs", "rf", "ga", "bogp", "botpe"};
  return ids;
}

const std::vector<std::string>& all_algorithms() {
  static const std::vector<std::string> ids = {"rs", "rf", "ga", "bogp", "botpe", "sa", "pso", "bandit"};
  return ids;
}

std::string display_name(const std::string& id) {
  return make_algorithm(id)->name();
}

}  // namespace repro::tuner
