// Algorithm registry: names, aliases, construction, errors.

#include <gtest/gtest.h>

#include "tuner/registry.hpp"

namespace repro::tuner {
namespace {

TEST(Registry, PaperSetMatchesStudy) {
  const auto& ids = paper_algorithms();
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(ids[0], "rs");
  EXPECT_EQ(ids[1], "rf");
  EXPECT_EQ(ids[2], "ga");
  EXPECT_EQ(ids[3], "bogp");
  EXPECT_EQ(ids[4], "botpe");
}

TEST(Registry, AllIdsConstruct) {
  for (const std::string& id : all_algorithms()) {
    const auto algorithm = make_algorithm(id);
    ASSERT_NE(algorithm, nullptr) << id;
    EXPECT_FALSE(algorithm->name().empty());
    EXPECT_TRUE(is_algorithm(id)) << id;
  }
}

TEST(Registry, DisplayNamesMatchThePaper) {
  EXPECT_EQ(display_name("rs"), "RS");
  EXPECT_EQ(display_name("rf"), "RF");
  EXPECT_EQ(display_name("ga"), "GA");
  EXPECT_EQ(display_name("bogp"), "BO GP");
  EXPECT_EQ(display_name("botpe"), "BO TPE");
}

TEST(Registry, AliasesAndNormalization) {
  EXPECT_EQ(make_algorithm("BO GP")->name(), "BO GP");
  EXPECT_EQ(make_algorithm("bo_gp")->name(), "BO GP");
  EXPECT_EQ(make_algorithm("Random-Search")->name(), "RS");
  EXPECT_EQ(make_algorithm("TPE")->name(), "BO TPE");
  EXPECT_TRUE(is_algorithm("BO GP"));
  EXPECT_TRUE(is_algorithm("Random-Search"));
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)make_algorithm("gradient-descent"), std::out_of_range);
  EXPECT_FALSE(is_algorithm("gradient-descent"));
}

TEST(Registry, ExtrasIncludeCltuneAndOpenTunerBaselines) {
  EXPECT_EQ(make_algorithm("sa")->name(), "SA");
  EXPECT_EQ(make_algorithm("pso")->name(), "PSO");
  EXPECT_EQ(make_algorithm("opentuner")->name(), "AUC Bandit");
  EXPECT_EQ(all_algorithms().size(), 8u);
}

TEST(Registry, InstancesAreIndependent) {
  const auto a = make_algorithm("ga");
  const auto b = make_algorithm("ga");
  EXPECT_NE(a.get(), b.get());
}

}  // namespace
}  // namespace repro::tuner
