#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "v2v/common/cli.hpp"
#include "v2v/common/table.hpp"

namespace v2v {
namespace {

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, CsvRoundTripAndEscaping) {
  const auto path = std::filesystem::temp_directory_path() / "v2v_table_test.csv";
  Table t({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"quote\"inside", "multi\nline"});
  t.write_csv(path.string());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(text.find("\"quote\"\"inside\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Table, AccessorsReflectContent) {
  Table t({"h"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"r"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.data()[0][0], "r");
  EXPECT_EQ(t.header()[0], "h");
}

CliArgs make_args(std::vector<std::string> argv_strings) {
  static std::vector<std::string> storage;
  storage = std::move(argv_strings);
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsSyntax) {
  const auto args = make_args({"prog", "--alpha=0.5", "--dims=20"});
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.5);
  EXPECT_EQ(args.get_int("dims", 0), 20);
}

TEST(Cli, SpaceSyntax) {
  const auto args = make_args({"prog", "--name", "value"});
  EXPECT_EQ(args.get("name", ""), "value");
}

TEST(Cli, BooleanFlag) {
  const auto args = make_args({"prog", "--full"});
  EXPECT_TRUE(args.get_bool("full"));
  EXPECT_TRUE(args.full_scale());
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto args = make_args({"prog"});
  EXPECT_EQ(args.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("y", 1.5), 1.5);
  EXPECT_FALSE(args.has("x"));
  EXPECT_FALSE(args.full_scale());
}

TEST(Cli, PositionalArgs) {
  const auto args = make_args({"prog", "input.txt", "--k=3", "other"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "other");
}

TEST(Cli, IntList) {
  const auto args = make_args({"prog", "--dims=20,50,100"});
  const auto dims = args.get_int_list("dims", {});
  ASSERT_EQ(dims.size(), 3u);
  EXPECT_EQ(dims[0], 20);
  EXPECT_EQ(dims[2], 100);
}

TEST(Cli, IntListFallback) {
  const auto args = make_args({"prog"});
  const auto dims = args.get_int_list("dims", {1, 2});
  ASSERT_EQ(dims.size(), 2u);
}

TEST(Cli, BadIntThrows) {
  const auto args = make_args({"prog", "--k=abc"});
  EXPECT_THROW((void)args.get_int("k", 0), std::invalid_argument);
}

TEST(Cli, UnknownFlagsFindsTypos) {
  const auto args = make_args({"prog", "serve", "--nprob=4", "--k=3"});
  const auto unknown = args.unknown_flags({"nprobe", "k", "port"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "nprob");
}

TEST(Cli, UnknownFlagsEmptyWhenAllKnown) {
  const auto args = make_args({"prog", "--k=3", "--port=80"});
  EXPECT_TRUE(args.unknown_flags({"k", "port"}).empty());
  // Strict subcommands pass an empty known set: every flag is unknown.
  const auto all = args.unknown_flags({});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], "k");  // map order: sorted by name
  EXPECT_EQ(all[1], "port");
}

TEST(Cli, GetSizeRangeChecks) {
  const auto args = make_args({"prog", "--neg=-1", "--over=65536", "--abc=abc",
                               "--zero=0", "--max=65535", "--big=18446744073709551615",
                               "--wrap=18446744073709551616", "--empty="});
  EXPECT_EQ(args.get_size("absent", 7), 7u);
  EXPECT_EQ(args.get_size("zero", 7, 65535), 0u);
  EXPECT_EQ(args.get_size("max", 0, 65535), 65535u);
  EXPECT_EQ(args.get_size("big", 0), SIZE_MAX);
  for (const char* flag : {"neg", "over", "abc", "empty"}) {
    EXPECT_THROW((void)args.get_size(flag, 0, 65535), std::invalid_argument) << flag;
  }
  EXPECT_THROW((void)args.get_size("neg", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_size("wrap", 0), std::invalid_argument);
  try {
    (void)args.get_size("over", 0, 65535);
    ADD_FAILURE() << "--over=65536 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--over expects an integer in [0, 65535], got '65536'");
  }
}

TEST(Cli, CheckFlagsPrintsEachUnknownFlag) {
  const auto args = make_args({"prog", "serve", "--nprob=4", "--k=3", "--prot=80"});
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(args.check_flags({"nprobe", "k", "port"}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "error: unknown flag --nprob\nerror: unknown flag --prot\n");
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(args.check_flags({"nprob", "k", "prot"}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

}  // namespace
}  // namespace v2v
