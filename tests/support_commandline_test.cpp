//===- tests/support_commandline_test.cpp ---------------------------------==//
//
// Tests for the tiny option parser used by the example and benchmark
// executables.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include <gtest/gtest.h>

using namespace dtb;

namespace {

bool parse(OptionParser &P, std::initializer_list<const char *> Args) {
  std::vector<const char *> Argv = {"prog"};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  return P.parse(static_cast<int>(Argv.size()), Argv.data());
}

} // namespace

TEST(ParseScaledUIntTest, PlainAndSuffixes) {
  uint64_t V = 0;
  EXPECT_TRUE(parseScaledUInt("123", &V));
  EXPECT_EQ(V, 123u);
  EXPECT_TRUE(parseScaledUInt("2k", &V));
  EXPECT_EQ(V, 2000u);
  EXPECT_TRUE(parseScaledUInt("3M", &V));
  EXPECT_EQ(V, 3'000'000u);
  EXPECT_TRUE(parseScaledUInt("1g", &V));
  EXPECT_EQ(V, 1'000'000'000u);
}

TEST(ParseScaledUIntTest, RejectsMalformed) {
  uint64_t V = 0;
  EXPECT_FALSE(parseScaledUInt("", &V));
  EXPECT_FALSE(parseScaledUInt("abc", &V));
  EXPECT_FALSE(parseScaledUInt("12q", &V));
  EXPECT_FALSE(parseScaledUInt("1kk", &V));
  EXPECT_FALSE(parseScaledUInt("-1", &V));
  EXPECT_FALSE(parseScaledUInt(" 5", &V));
  EXPECT_FALSE(parseScaledUInt("20000000000g", &V));
}

TEST(OptionParserTest, EqualsAndSpaceForms) {
  uint64_t N = 0;
  std::string S;
  OptionParser P("test");
  P.addUInt("count", "a count", &N);
  P.addString("name", "a name", &S);
  EXPECT_TRUE(parse(P, {"--count=5", "--name", "zorn"}));
  EXPECT_EQ(N, 5u);
  EXPECT_EQ(S, "zorn");
}

TEST(OptionParserTest, FlagForms) {
  bool F = false;
  OptionParser P("test");
  P.addFlag("fast", "go fast", &F);
  EXPECT_TRUE(parse(P, {"--fast"}));
  EXPECT_TRUE(F);

  bool G = true;
  OptionParser Q("test");
  Q.addFlag("fast", "go fast", &G);
  EXPECT_TRUE(parse(Q, {"--fast=false"}));
  EXPECT_FALSE(G);
}

TEST(OptionParserTest, DoubleOption) {
  double D = 0.0;
  OptionParser P("test");
  P.addDouble("ratio", "a ratio", &D);
  EXPECT_TRUE(parse(P, {"--ratio=2.5"}));
  EXPECT_DOUBLE_EQ(D, 2.5);
}

TEST(OptionParserTest, UIntAcceptsSuffix) {
  uint64_t N = 0;
  OptionParser P("test");
  P.addUInt("bytes", "byte count", &N);
  EXPECT_TRUE(parse(P, {"--bytes=3m"}));
  EXPECT_EQ(N, 3'000'000u);
}

TEST(OptionParserTest, UnknownOptionFails) {
  OptionParser P("test");
  EXPECT_FALSE(parse(P, {"--nope"}));
}

TEST(OptionParserTest, MissingValueFails) {
  std::string S;
  OptionParser P("test");
  P.addString("name", "a name", &S);
  EXPECT_FALSE(parse(P, {"--name"}));
}

TEST(OptionParserTest, InvalidValueFails) {
  uint64_t N = 0;
  OptionParser P("test");
  P.addUInt("count", "a count", &N);
  EXPECT_FALSE(parse(P, {"--count=banana"}));
}

TEST(OptionParserTest, PositionalsCollected) {
  OptionParser P("test");
  EXPECT_TRUE(parse(P, {"one", "two"}));
  ASSERT_EQ(P.positionals().size(), 2u);
  EXPECT_EQ(P.positionals()[0], "one");
  EXPECT_EQ(P.positionals()[1], "two");
}

TEST(OptionParserTest, UnknownShortOptionFails) {
  uint64_t N = 0;
  OptionParser P("test");
  P.addUInt("count", "a count", &N);
  P.addShortAlias("c", "count");
  EXPECT_FALSE(parse(P, {"-x"}));
  OptionParser Q("test");
  EXPECT_FALSE(parse(Q, {"one", "-x", "two"}));
  // A lone dash is a positional (conventionally standard input).
  OptionParser R("test");
  EXPECT_TRUE(parse(R, {"-"}));
  EXPECT_EQ(R.positionals(), std::vector<std::string>{"-"});
}

TEST(OptionParserTest, RejectedPositionalsFail) {
  bool F = false;
  OptionParser P("test");
  P.addFlag("fast", "go fast", &F);
  P.rejectPositionals();
  EXPECT_TRUE(parse(P, {"--fast"}));
  EXPECT_FALSE(parse(P, {"stray"}));
  EXPECT_FALSE(parse(P, {"--fast", "-"}));
}

TEST(OptionParserTest, HelpReturnsFalse) {
  OptionParser P("test");
  EXPECT_FALSE(parse(P, {"--help"}));
}

TEST(OptionParserTest, DefaultsPreservedWhenNotGiven) {
  uint64_t N = 77;
  OptionParser P("test");
  P.addUInt("count", "a count", &N);
  EXPECT_TRUE(parse(P, {}));
  EXPECT_EQ(N, 77u);
}
