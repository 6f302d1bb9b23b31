#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace lu = lithogan::util;

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  lu::Rng a(42);
  lu::Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  lu::Rng a(1);
  lu::Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(Rng, UniformIntStaysInRange) {
  lu::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  lu::Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntRejectsBadBounds) {
  lu::Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), lu::InvalidArgument);
}

TEST(Rng, UniformDoubleStaysInHalfOpenRange) {
  lu::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalHasRoughlyRequestedMoments) {
  lu::Rng rng(5);
  const int n = 20000;
  double sum = 0.0;
  double ss = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    ss += v * v;
  }
  const double mean = sum / n;
  const double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, BernoulliMatchesProbability) {
  lu::Rng rng(9);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(Rng, PermutationIsAPermutation) {
  lu::Rng rng(13);
  const auto perm = rng.permutation(50);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, PermutationOfZeroAndOne) {
  lu::Rng rng(13);
  EXPECT_TRUE(rng.permutation(0).empty());
  const auto one = rng.permutation(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

TEST(Rng, SplitProducesIndependentStream) {
  lu::Rng parent(21);
  lu::Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 8);
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = lu::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = lu::split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(lu::starts_with("lithogan", "litho"));
  EXPECT_FALSE(lu::starts_with("litho", "lithogan"));
}

TEST(Strings, ToLower) { EXPECT_EQ(lu::to_lower("MiXeD123"), "mixed123"); }

TEST(Strings, FormatFixedRounds) {
  EXPECT_EQ(lu::format_fixed(1.237, 2), "1.24");
  EXPECT_EQ(lu::format_fixed(-0.5, 0), "-0");  // printf semantics
  EXPECT_EQ(lu::format_fixed(2.0, 3), "2.000");
}

TEST(Strings, Padding) {
  EXPECT_EQ(lu::pad_right("ab", 4), "ab  ");
  EXPECT_EQ(lu::pad_left("ab", 4), "  ab");
  EXPECT_EQ(lu::pad_right("abcdef", 4), "abcdef");
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "lithogan_util_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(FileIoTest, WriteReadRoundTrip) {
  const std::string path = (dir_ / "t.txt").string();
  lu::write_file(path, "hello\nworld");
  EXPECT_EQ(lu::read_file(path), "hello\nworld");
  EXPECT_TRUE(lu::file_exists(path));
}

TEST_F(FileIoTest, ReadMissingFileThrows) {
  EXPECT_THROW(lu::read_file((dir_ / "missing").string()), lu::IoError);
}

TEST_F(FileIoTest, MakeDirectoriesCreatesNested) {
  const auto nested = dir_ / "a" / "b" / "c";
  lu::make_directories(nested.string());
  EXPECT_TRUE(std::filesystem::is_directory(nested));
}

TEST_F(FileIoTest, BinaryPrimitivesRoundTrip) {
  std::stringstream ss;
  lu::write_u32(ss, 0xdeadbeefu);
  lu::write_u64(ss, 0x0123456789abcdefull);
  lu::write_f64(ss, -1.5e-12);
  lu::write_string(ss, "lithogan");
  const float arr[3] = {1.0f, 2.0f, 3.0f};
  lu::write_f32_array(ss, arr, 3);

  EXPECT_EQ(lu::read_u32(ss), 0xdeadbeefu);
  EXPECT_EQ(lu::read_u64(ss), 0x0123456789abcdefull);
  EXPECT_EQ(lu::read_f64(ss), -1.5e-12);
  EXPECT_EQ(lu::read_string(ss), "lithogan");
  float out[3] = {};
  lu::read_f32_array(ss, out, 3);
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[2], 3.0f);
}

TEST_F(FileIoTest, TruncatedReadThrowsFormatError) {
  std::stringstream ss;
  lu::write_u32(ss, 1);
  (void)lu::read_u32(ss);
  EXPECT_THROW(lu::read_u32(ss), lu::FormatError);
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

TEST(Cli, ParsesSpaceAndEqualsForms) {
  lu::CliParser cli("test");
  cli.add_flag("alpha", "1", "alpha").add_flag("beta", "x", "beta");
  const char* argv[] = {"prog", "--alpha", "7", "--beta=zed"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("alpha"), 7);
  EXPECT_EQ(cli.get("beta"), "zed");
}

TEST(Cli, DefaultsApplyWhenOmitted) {
  lu::CliParser cli("test");
  cli.add_flag("gamma", "2.5", "gamma");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("gamma"), 2.5);
}

TEST(Cli, BooleanSwitchWithoutValue) {
  lu::CliParser cli("test");
  cli.add_flag("verbose", "false", "verbosity").add_flag("n", "3", "count");
  const char* argv[] = {"prog", "--verbose", "--n", "5"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get_int("n"), 5);
}

TEST(Cli, UnknownFlagThrows) {
  lu::CliParser cli("test");
  cli.add_flag("a", "1", "a");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(cli.parse(3, argv), lu::InvalidArgument);
}

TEST(Cli, HelpReturnsFalse) {
  lu::CliParser cli("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.usage().find("test"), std::string::npos);
}

TEST(Cli, NonNumericValueThrowsOnTypedGet) {
  lu::CliParser cli("test");
  cli.add_flag("n", "1", "count");
  const char* argv[] = {"prog", "--n", "abc"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.get_int("n"), lu::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

TEST(Timer, ElapsedIsMonotonic) {
  lu::Timer t;
  const double a = t.elapsed_seconds();
  const double b = t.elapsed_seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(StageTimings, AccumulatesBuckets) {
  lu::StageTimings timings;
  timings.add("optical", 1.5);
  timings.add("optical", 0.5);
  timings.add("resist", 2.0);
  EXPECT_DOUBLE_EQ(timings.total("optical"), 2.0);
  EXPECT_EQ(timings.count("optical"), 2);
  EXPECT_DOUBLE_EQ(timings.total("resist"), 2.0);
  EXPECT_DOUBLE_EQ(timings.total("missing"), 0.0);
  EXPECT_EQ(timings.count("missing"), 0);
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

TEST(Error, RequireMacroThrowsWithContext) {
  try {
    LITHOGAN_REQUIRE(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const lu::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchableAsBase) {
  EXPECT_THROW(throw lu::IoError("x"), lu::Error);
  EXPECT_THROW(throw lu::FormatError("x"), lu::Error);
}
