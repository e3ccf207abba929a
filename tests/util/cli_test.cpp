#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::util {
namespace {

CliArgs parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ProgramAndPositionals) {
  const auto args = parse({"coverage", "extra"});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"coverage", "extra"}));
}

TEST(Cli, SpaceSeparatedValue) {
  const auto args = parse({"--players", "5000"});
  EXPECT_EQ(args.get_int("players", 0), 5000);
}

TEST(Cli, EqualsSeparatedValue) {
  const auto args = parse({"--players=123"});
  EXPECT_EQ(args.get_int("players", 0), 123);
}

TEST(Cli, BareFlagIsBooleanTrue) {
  const auto args = parse({"--csv"});
  EXPECT_TRUE(args.get_bool("csv"));
  EXPECT_FALSE(args.get_bool("paper"));
}

TEST(Cli, ExplicitBooleanValues) {
  EXPECT_TRUE(parse({"--x", "yes"}).get_bool("x"));
  EXPECT_FALSE(parse({"--x=off"}).get_bool("x"));
  EXPECT_THROW(parse({"--x", "maybe"}).get_bool("x"), ConfigError);
}

TEST(Cli, FlagFollowedByFlagStaysBoolean) {
  const auto args = parse({"--csv", "--players", "10"});
  EXPECT_TRUE(args.get_bool("csv"));
  EXPECT_EQ(args.get_int("players", 0), 10);
}

TEST(Cli, NegativeNumbersAreValues) {
  const auto args = parse({"--offset", "-5"});
  EXPECT_EQ(args.get_int("offset", 0), -5);
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto args = parse({});
  EXPECT_EQ(args.get_string("profile", "peersim"), "peersim");
  EXPECT_EQ(args.get_int("seed", 42), 42);
}

TEST(Cli, LastOccurrenceWins) {
  const auto args = parse({"--seed", "1", "--seed", "2"});
  EXPECT_EQ(args.get_int("seed", 0), 2);
}

TEST(Cli, TypedParseErrors) {
  EXPECT_THROW(parse({"--players", "lots"}).get_int("players", 0), ConfigError);
}

TEST(Cli, RequireKnownCatchesTypos) {
  const auto args = parse({"--playrs", "10"});
  EXPECT_THROW(args.require_known({"players", "seed"}), ConfigError);
  EXPECT_NO_THROW(args.require_known({"playrs"}));
}

TEST(Cli, RejectsDegenerateOptions) {
  EXPECT_THROW(parse({"--"}), ConfigError);
  EXPECT_THROW(parse({"--=5"}), ConfigError);
}

}  // namespace
}  // namespace cloudfog::util
