#pragma once
// Shared command-line entry point for the per-figure bench binaries: parses
// the common flags, runs the study, renders the requested figure, and
// optionally writes the CSV artifact.
//
// Common flags: --scale <div> (default 32; divides the paper's experiment
// counts), --full (paper scale), --bench a,b --arch a,b --algo a,b filters,
// --sizes 25,50,..., --seed <n>, --out <dir> for CSV output.

#include <string>

#include "harness/report.hpp"
#include "harness/study.hpp"

namespace repro::harness {

enum class Figure { kFig2, kFig3, kFig4a, kFig4b };

/// Parse the common study flags. Returns false after printing usage (on
/// --help or an unknown flag); `config` and `out_dir` are filled on success.
/// A numeric flag that is not a whole number (or, for --scale, a number), a
/// sample size below 1 or a negative --min-experiments throws
/// std::invalid_argument naming the flag.
bool parse_study_cli(int argc, const char* const* argv, const std::string& program,
                     const std::string& description, StudyConfig& config,
                     std::string& out_dir);

/// Full driver used by the fig* bench mains.
int run_figure_main(int argc, const char* const* argv, Figure figure);

}  // namespace repro::harness
