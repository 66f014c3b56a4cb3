// core::parse_number and core::Cli: the strict number primitive and the
// declarative flag parser every command-line tool shares.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/parse_number.hpp"

namespace ddpm::core {
namespace {

enum class Color { kRed, kGreen };

/// Runs `cli` over {"prog", args...}.
bool run(Cli& cli, std::vector<const char*> args,
         std::ostream& help_out = std::cout) {
  args.insert(args.begin(), "prog");
  return cli.parse(int(args.size()), args.data(), help_out);
}

/// The std::invalid_argument message `cli` throws for `args`.
std::string error_of(Cli& cli, std::vector<const char*> args) {
  try {
    run(cli, std::move(args));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(no error)";
}

template <typename T>
std::optional<T> parsed(std::string_view text) {
  T value{};
  if (!parse_number(text, value)) return std::nullopt;
  return value;
}

TEST(ParseNumber, AcceptsWholeInRangeNumbers) {
  EXPECT_EQ(parsed<std::uint32_t>("0"), 0u);
  EXPECT_EQ(parsed<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_EQ(parsed<std::uint64_t>("18446744073709551615"),
            18446744073709551615ull);
  EXPECT_EQ(parsed<int>("-12"), -12);
  EXPECT_EQ(parsed<double>("0.0003"), 0.0003);
  EXPECT_EQ(parsed<double>("1e5"), 1e5);
  EXPECT_EQ(parsed<double>("-2.5"), -2.5);
}

TEST(ParseNumber, RejectsTrailingJunkAndPadding) {
  for (const char* text : {"", "4x", "4 ", " 4", "+4", "0x10", "1,2", "4.",
                           "--4"}) {
    EXPECT_FALSE(parsed<std::uint64_t>(text)) << text;
  }
  EXPECT_FALSE(parsed<double>("1.5e")) << "dangling exponent";
  EXPECT_FALSE(parsed<double>("")) << "empty";
}

TEST(ParseNumber, UnsignedRejectsAnySignInsteadOfWrapping) {
  EXPECT_FALSE(parsed<std::uint64_t>("-1"));
  EXPECT_FALSE(parsed<std::uint32_t>("-0"));
  EXPECT_FALSE(parsed<std::size_t>("-5"));
}

TEST(ParseNumber, RejectsOverflowOfTheTargetType) {
  EXPECT_FALSE(parsed<std::uint32_t>("5000000000"));
  EXPECT_FALSE(parsed<std::uint32_t>("4294967296"));
  EXPECT_FALSE(parsed<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(parsed<int>("2147483648"));
  EXPECT_FALSE(parsed<double>("1e999"));
}

TEST(ParseNumber, FloatingPointRejectsNanAndInfinity) {
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                           "INF", "nan(123)"}) {
    EXPECT_FALSE(parsed<double>(text)) << text;
  }
}

TEST(ParseNumber, FailureLeavesTheTargetUntouched) {
  std::uint32_t value = 7;
  EXPECT_FALSE(parse_number("99x", value));
  EXPECT_EQ(value, 7u);
}

TEST(FormatNumber, PrintsShortestRoundTrip) {
  EXPECT_EQ(format_number(0.0003), "0.0003");
  EXPECT_EQ(format_number(0.01), "0.01");
  EXPECT_EQ(format_number(std::uint64_t{400000}), "400000");
  EXPECT_EQ(format_number(-3), "-3");
}

TEST(Cli, EachFlagKindSetsItsTarget) {
  bool on = false;
  std::string name = "a";
  std::size_t count = 1;
  double rate = 0.5;
  std::vector<std::string> names{"x"};
  std::vector<double> rates{1};
  Color color = Color::kRed;
  std::optional<std::uint32_t> maybe;
  Cli cli("test");
  cli.toggle("--on", on, "toggle");
  cli.text("--name", name, "S", "string");
  cli.number("--count", count, "N", "number", 1);
  cli.number("--rate", rate, "R", "bounded", 0, 1);
  cli.list("--names", names, "A,B", "list");
  cli.list("--rates", rates, "R1,R2", "number list", 0);
  cli.choice("--color", color, {{"red", Color::kRed}, {"green", Color::kGreen}},
             "C", "choice");
  cli.number("--maybe", maybe, "N", "optional");
  ASSERT_TRUE(run(cli, {"--on", "--name", "b", "--count", "3", "--rate", "1",
                        "--names", "p,,q,", "--rates", "0.5,2", "--color",
                        "green", "--maybe", "9"}));
  EXPECT_TRUE(on);
  EXPECT_EQ(name, "b");
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(rate, 1.0);
  EXPECT_EQ(names, (std::vector<std::string>{"p", "q"}));
  EXPECT_EQ(rates, (std::vector<double>{0.5, 2}));
  EXPECT_EQ(color, Color::kGreen);
  EXPECT_EQ(maybe, 9u);
}

TEST(Cli, AbsentFlagsKeepTheirDefaults) {
  bool on = false;
  std::size_t count = 4;
  std::optional<std::uint32_t> maybe;
  Cli cli("test");
  cli.toggle("--on", on, "toggle");
  cli.number("--count", count, "N", "number");
  cli.number("--maybe", maybe, "N", "optional");
  ASSERT_TRUE(run(cli, {}));
  EXPECT_FALSE(on);
  EXPECT_EQ(count, 4u);
  EXPECT_FALSE(maybe.has_value());
}

TEST(Cli, LaterOccurrenceWinsAndListsAreReplaced) {
  std::size_t count = 0;
  std::vector<std::string> names{"x", "y"};
  Cli cli("test");
  cli.number("--count", count, "N", "number");
  cli.list("--names", names, "A,B", "list");
  ASSERT_TRUE(run(cli, {"--count", "1", "--count", "2", "--names", "z"}));
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(names, std::vector<std::string>{"z"});
}

TEST(Cli, RangeEdgesAreInclusive) {
  std::size_t count = 1;
  double duty = 0.5;
  Cli cli("test");
  cli.number("--count", count, "N", "at least one", 1);
  cli.number("--duty", duty, "R", "fraction", 0, 1);
  EXPECT_TRUE(run(cli, {"--count", "1", "--duty", "0"}));
  EXPECT_TRUE(run(cli, {"--duty", "1"}));
  EXPECT_EQ(error_of(cli, {"--count", "0"}),
            "--count: invalid value '0' (expected an integer >= 1)");
  EXPECT_EQ(error_of(cli, {"--duty", "1.0000001"}),
            "--duty: invalid value '1.0000001' (expected a number in [0, 1])");
  EXPECT_EQ(error_of(cli, {"--duty", "-0.1"}),
            "--duty: invalid value '-0.1' (expected a number in [0, 1])");
}

TEST(Cli, RejectsMalformedNumbersNamingFlagAndValue) {
  std::uint64_t ticks = 1;
  std::uint32_t sources = 1;
  double rate = 0;
  Cli cli("test");
  cli.number("--ticks", ticks, "T", "ticks", 1);
  cli.number("--sources", sources, "N", "sources");
  cli.number("--rate", rate, "R", "rate", 0);
  EXPECT_EQ(error_of(cli, {"--ticks", "-5"}),
            "--ticks: invalid value '-5' (expected an integer >= 1)");
  EXPECT_EQ(error_of(cli, {"--ticks", "4x"}),
            "--ticks: invalid value '4x' (expected an integer >= 1)");
  EXPECT_EQ(error_of(cli, {"--sources", "5000000000"}),
            "--sources: invalid value '5000000000' (expected an integer >= 0)");
  for (const char* bad : {"nan", "inf", "-inf", "-1", "0.5.5", ""}) {
    EXPECT_NE(error_of(cli, {"--rate", bad}).find("--rate: invalid value"),
              std::string::npos)
        << bad;
  }
  EXPECT_EQ(ticks, 1u) << "a rejected value must not reach the target";
}

TEST(Cli, RejectsBadListItemsAndUnknownChoices) {
  std::vector<double> rates{0.1};
  Color color = Color::kRed;
  Cli cli("test");
  cli.list("--rates", rates, "R1,R2", "rates", 0);
  cli.choice("--color", color, {{"red", Color::kRed}, {"green", Color::kGreen}},
             "C", "choice");
  EXPECT_EQ(error_of(cli, {"--rates", "0.2,-1"}),
            "--rates: invalid value '-1' (expected a number >= 0)");
  EXPECT_EQ(error_of(cli, {"--color", "blue"}),
            "--color: invalid value 'blue' (expected one of red|green)");
}

TEST(Cli, RejectsUnknownFlagsAndMissingValues) {
  std::string name;
  Cli cli("test");
  cli.text("--name", name, "S", "string");
  EXPECT_EQ(error_of(cli, {"--nmae", "x"}),
            "unknown option: --nmae (try --help)");
  EXPECT_EQ(error_of(cli, {"positional"}),
            "unknown option: positional (try --help)");
  EXPECT_EQ(error_of(cli, {"--name"}), "--name needs a value");
}

TEST(Cli, HelpIsGeneratedFromTheDeclarations) {
  bool on = false;
  std::size_t count = 4;
  double rate = 0.0003;
  std::string empty;
  std::vector<std::string> names{"a", "b"};
  Color color = Color::kGreen;
  std::optional<std::uint32_t> victim;
  Cli cli("prog — a test program");
  cli.toggle("--on", on, "turn it on");
  cli.number("--count", count, "N", "how many");
  cli.number("--rate", rate, "R", "how fast");
  cli.text("--out", empty, "FILE", "where to write");
  cli.list("--names", names, "A,B", "which ones");
  cli.choice("--color", color, {{"red", Color::kRed}, {"green", Color::kGreen}},
             "C", "paint");
  cli.number("--victim", victim, "N", "target (default: last node)");
  EXPECT_EQ(cli.help(),
            "prog — a test program\n\n"
            "  --on         turn it on\n"
            "  --count N    how many (default 4)\n"
            "  --rate R     how fast (default 0.0003)\n"
            "  --out FILE   where to write\n"
            "  --names A,B  which ones (default a,b)\n"
            "  --color C    paint: red|green (default green)\n"
            "  --victim N   target (default: last node)\n");
}

TEST(Cli, HelpFlagStopsParsingAndReportsFalse) {
  std::size_t count = 0;
  Cli cli("test");
  cli.number("--count", count, "N", "number");
  std::ostringstream out;
  EXPECT_FALSE(run(cli, {"--help", "--count", "3"}, out));
  EXPECT_FALSE(run(cli, {"-h"}, out));
  EXPECT_EQ(out.str(), cli.help() + cli.help());
  EXPECT_EQ(count, 0u);
}

}  // namespace
}  // namespace ddpm::core
