#pragma once
// Factory registry mapping algorithm names to fresh SearchAlgorithm
// instances. The canonical study set (paper Table I, Tørring row) is
// {RS, RF, GA, BO GP, BO TPE}; "SA"/"PSO" (CLTune baselines) and "bandit"
// (OpenTuner-style AUC-bandit ensemble) are available for the ablation and
// comparison benches.

#include <memory>
#include <string>
#include <vector>

#include "tuner/tuner.hpp"
#include "tuner/warm_start.hpp"

namespace repro::tuner {

/// Construct an algorithm by name ("rs", "rf", "ga", "bogp", "botpe",
/// "sa", "pso", "bandit"; case-insensitive, spaces/underscores ignored).
/// Throws std::out_of_range for unknown names.
[[nodiscard]] std::unique_ptr<SearchAlgorithm> make_algorithm(const std::string& name);

/// True when make_algorithm accepts `name`.
[[nodiscard]] bool is_algorithm(const std::string& name);

/// Like make_algorithm, but with a cross-tenant warm-start prior
/// (tuner/warm_start.hpp) injected into the model-based algorithms (BO GP,
/// BO TPE, RF). Algorithms without a model ignore the prior; a null/empty
/// prior is exactly make_algorithm(name).
[[nodiscard]] std::unique_ptr<SearchAlgorithm> make_algorithm(const std::string& name,
                                                              const PriorHandle& prior);

/// True when `name` resolves to an algorithm that can consume a warm-start
/// prior. Throws std::out_of_range for unknown names.
[[nodiscard]] bool supports_warm_start(const std::string& name);

/// Canonical identifiers of the paper's five algorithms, in figure order.
[[nodiscard]] const std::vector<std::string>& paper_algorithms();

/// All registered identifiers (paper set + extras).
[[nodiscard]] const std::vector<std::string>& all_algorithms();

/// Display name ("BO GP") for an identifier ("bogp").
[[nodiscard]] std::string display_name(const std::string& id);

}  // namespace repro::tuner
