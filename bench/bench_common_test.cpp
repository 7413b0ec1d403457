// Point selection of the bench runner: --system= anchors on whole display
// names, --filter= is a regex search, and the last of the two wins.
#include <gtest/gtest.h>

#include "bench_common.hpp"

namespace efac::bench {
namespace {

TEST(PointFilter, NoFlagSelectsEveryPoint) {
  const PointFilter filter;
  EXPECT_TRUE(filter.selects("fig9/throughput/read-only/eFactory/64B"));
  EXPECT_TRUE(filter.selects("ablation/crc_rate/1.05"));
}

TEST(PointFilter, SystemAnchorsOnTheWholeDisplayName) {
  PointFilter filter;
  ASSERT_TRUE(filter.set_system("eFactory"));
  EXPECT_TRUE(filter.selects("fig9/throughput/read-only/eFactory/64B"));
  EXPECT_TRUE(filter.selects("adaptive/read-only/eFactory"));
  EXPECT_FALSE(
      filter.selects("fig9/throughput/read-only/eFactory w/o hr/64B"));
  EXPECT_FALSE(filter.selects("fig9/throughput/read-only/Erda/64B"));

  ASSERT_TRUE(filter.set_system("efactory-nohr,erda"));
  EXPECT_TRUE(
      filter.selects("fig9/throughput/read-only/eFactory w/o hr/64B"));
  EXPECT_TRUE(filter.selects("fig9/throughput/read-only/Erda/64B"));
  EXPECT_FALSE(filter.selects("fig9/throughput/read-only/eFactory/64B"));
}

TEST(PointFilter, FilterIsARegexSearch) {
  PointFilter filter;
  ASSERT_TRUE(filter.set_filter("crc_rate/1.05"));
  EXPECT_TRUE(filter.selects("ablation/crc_rate/1.05"));
  EXPECT_FALSE(filter.selects("ablation/crc_rate/0.50"));
  ASSERT_TRUE(filter.set_filter("update-only"));
  EXPECT_TRUE(filter.selects("fig11/log_cleaning/update-only"));
  EXPECT_FALSE(filter.selects("fig11/log_cleaning/read-only"));
}

TEST(PointFilter, LastOfSystemAndFilterWins) {
  const std::string erda = "fig2/get_breakdown/Erda/64B";
  const std::string forca = "fig2/get_breakdown/Forca/64B";
  PointFilter filter;
  ASSERT_TRUE(filter.set_system("Erda"));
  ASSERT_TRUE(filter.set_filter("Forca"));
  EXPECT_FALSE(filter.selects(erda));
  EXPECT_TRUE(filter.selects(forca));

  ASSERT_TRUE(filter.set_system("Erda"));
  EXPECT_TRUE(filter.selects(erda));
  EXPECT_FALSE(filter.selects(forca));
}

TEST(PointFilter, BadValuesKeepThePreviousSelection) {
  PointFilter filter;
  ASSERT_TRUE(filter.set_system("Erda"));
  EXPECT_FALSE(filter.set_system("no-such-system"));
  EXPECT_FALSE(filter.set_system(","));
  EXPECT_FALSE(filter.set_filter("(unclosed"));
  EXPECT_EQ(filter.pattern(), "/(Erda)(/|$)");
}

TEST(ParseCountList, AcceptsPositiveCountsOnly) {
  std::vector<std::size_t> counts;
  ASSERT_TRUE(parse_count_list("1,4,128", &counts));
  EXPECT_EQ(counts, (std::vector<std::size_t>{1, 4, 128}));
  EXPECT_FALSE(parse_count_list("", &counts));
  EXPECT_FALSE(parse_count_list("0", &counts));
  EXPECT_FALSE(parse_count_list("4,x", &counts));
}

}  // namespace
}  // namespace efac::bench
