// Tests for util: tagged ids, argument parsing and text formatting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/args.h"
#include "util/format.h"
#include "util/tagged_id.h"

namespace hlsrg {
namespace {

TEST(TaggedIdTest, DefaultConstructedIsInvalid) {
  VehicleId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), VehicleId::kInvalid);
}

TEST(TaggedIdTest, ExplicitValueIsValid) {
  VehicleId id{std::uint32_t{42}};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
  EXPECT_EQ(id.index(), std::size_t{42});
}

TEST(TaggedIdTest, ComparisonIsByValue) {
  VehicleId a{std::uint32_t{1}};
  VehicleId b{std::uint32_t{2}};
  VehicleId c{std::uint32_t{1}};
  EXPECT_LT(a, b);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
}

TEST(TaggedIdTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<VehicleId, IntersectionId>);
  static_assert(!std::is_convertible_v<VehicleId, IntersectionId>);
  static_assert(!std::is_convertible_v<VehicleId, int>);
}

TEST(TaggedIdTest, HashWorksInUnorderedContainers) {
  std::unordered_set<VehicleId> set;
  set.insert(VehicleId{std::uint32_t{1}});
  set.insert(VehicleId{std::uint32_t{2}});
  set.insert(VehicleId{std::uint32_t{1}});
  EXPECT_EQ(set.size(), 2u);
}

TEST(TaggedIdTest, StreamsValueOrInvalid) {
  std::ostringstream os;
  os << VehicleId{std::uint32_t{5}} << ' ' << VehicleId{};
  EXPECT_EQ(os.str(), "5 <invalid>");
}

// --- TextTable / format ------------------------------------------------------

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t;
  t.add_row({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator line of dashes present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTableTest, CsvEscapesSpecialCells) {
  TextTable t;
  t.add_row({"a,b", "plain", "say \"hi\""});
  const std::string csv = t.render_csv();
  EXPECT_EQ(csv, "\"a,b\",plain,\"say \"\"hi\"\"\"\n");
}

TEST(FormatTest, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

TEST(FormatTest, FmtPercentHandlesZeroDenominator) {
  EXPECT_EQ(fmt_percent(1, 0), "n/a");
  EXPECT_EQ(fmt_percent(1, 2, 1), "50.0%");
}

// --- ArgParser --------------------------------------------------------------

// argv helper: gtest-owned storage so the char** stays valid for the call.
std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> out;
  for (std::string& a : args) out.push_back(a.data());
  return out;
}

TEST(ArgParserTest, FlagsAndValuesParse) {
  ArgParser p("test");
  bool flag = false;
  int n = 0;
  double x = 0.0;
  std::string s;
  p.add_flag("--flag", "a flag", &flag);
  p.add_int("--n", "N", "an int", &n);
  p.add_double("--x", "X", "a double", &x);
  p.add_string("--s", "S", "a string", &s);
  std::vector<std::string> args = {"prog", "--flag", "--n", "7",
                                   "--x=2.5", "--s", "hi"};
  std::vector<char*> argv = argv_of(args);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(flag);
  EXPECT_EQ(n, 7);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_EQ(s, "hi");
}

TEST(ArgParserTest, PositionalsFillInDeclarationOrder) {
  ArgParser p("test");
  std::string in, out = "unset";
  int n = 0;
  p.add_positional("IN", "input file", &in);
  p.add_positional_opt("OUT", "output file", &out);
  p.add_int("--n", "N", "an int", &n);
  std::vector<std::string> args = {"prog", "a.svg", "--n", "3", "b.svg"};
  std::vector<char*> argv = argv_of(args);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(in, "a.svg");
  EXPECT_EQ(out, "b.svg");
  EXPECT_EQ(n, 3);
}

TEST(ArgParserTest, MissingRequiredPositionalFails) {
  ArgParser p("test");
  std::string in;
  p.add_positional("IN", "input file", &in);
  std::vector<std::string> args = {"prog"};
  std::vector<char*> argv = argv_of(args);
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.exit_code(), 2);
}

TEST(ArgParserTest, AbsentOptionalPositionalLeftUntouched) {
  ArgParser p("test");
  std::string out = "default.svg";
  p.add_positional_opt("OUT", "output file", &out);
  std::vector<std::string> args = {"prog"};
  std::vector<char*> argv = argv_of(args);
  ASSERT_TRUE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(out, "default.svg");
}

TEST(ArgParserTest, ExtraOperandWithNoSlotFails) {
  ArgParser p("test");
  std::string in;
  p.add_positional("IN", "input file", &in);
  std::vector<std::string> args = {"prog", "a.svg", "stray"};
  std::vector<char*> argv = argv_of(args);
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(p.exit_code(), 2);
}

TEST(ArgParserTest, UnknownFlagSuggestsNearMiss) {
  ArgParser p("test");
  int replicas = 0;
  p.add_int("--replicas", "N", "replicas", &replicas);
  std::vector<std::string> args = {"prog", "--replica", "3"};
  std::vector<char*> argv = argv_of(args);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("did you mean '--replicas'"), std::string::npos) << err;
  EXPECT_EQ(p.exit_code(), 2);
}

TEST(ArgParserTest, WildlyUnrelatedFlagGetsNoSuggestion) {
  ArgParser p("test");
  int replicas = 0;
  p.add_int("--replicas", "N", "replicas", &replicas);
  std::vector<std::string> args = {"prog", "--frobnicate"};
  std::vector<char*> argv = argv_of(args);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(p.parse(static_cast<int>(argv.size()), argv.data()));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("did you mean"), std::string::npos) << err;
}

TEST(ArgParserTest, DuplicateRegistrationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ArgParser p("test");
        bool a = false;
        bool b = false;
        p.add_flag("--same", "first", &a);
        p.add_flag("--same", "second", &b);
      },
      "duplicate flag registration");
}

TEST(ArgParserTest, UsageListsPositionalsInSynopsis) {
  ArgParser p("demo");
  std::string in, out;
  p.add_positional("IN", "input", &in);
  p.add_positional_opt("OUT", "output", &out);
  const std::string usage = p.usage();
  EXPECT_NE(usage.find("IN [OUT]"), std::string::npos) << usage;
}

}  // namespace
}  // namespace hlsrg
