// Tests for dbase::JsonWriter, the one JSON emitter behind GET /statz,
// GET /compositions and the bench reports: structure and number format
// units, a seeded fuzz of random byte strings as keys and values (every
// document must parse with the parser bench_e2e reads /statz with, and
// every string must come back unchanged), and a bench report round trip.
#include "src/base/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/e2e/util.h"
#include "src/benchutil/table.h"
#include "tests/fuzz_util.h"

namespace {

TEST(JsonWriterTest, InsertsCommasAndNests) {
  dbase::JsonWriter json;
  json.BeginObject()
      .Field("a", 1)
      .BeginArray("b")
      .Value(true)
      .Null()
      .Value("x")
      .BeginObject()
      .EndObject()
      .EndArray()
      .BeginObject("c")
      .EndObject()
      .Field("d", false)
      .EndObject();
  EXPECT_EQ(json.Take(), R"({"a":1,"b":[true,null,"x",{}],"c":{},"d":false})");
}

TEST(JsonWriterTest, PrintsIntegersExactlyAndDoublesInOneFormat) {
  dbase::JsonWriter json;
  json.BeginArray()
      .Value(std::numeric_limits<uint64_t>::max())
      .Value(std::numeric_limits<int64_t>::min())
      .Value(-3)
      .Value(0.1)
      .Value(2.0)
      .Value(-1.5e-7)
      .Value(std::numeric_limits<double>::quiet_NaN())
      .Value(std::numeric_limits<double>::infinity())
      .Value(-std::numeric_limits<double>::infinity())
      .EndArray();
  EXPECT_EQ(json.Take(),
            "[18446744073709551615,-9223372036854775808,-3,0.1,2,-1.5e-07,null,null,null]");
}

TEST(JsonWriterTest, EscapesKeysAndStrings) {
  dbase::JsonWriter json;
  json.BeginObject()
      .Field(std::string("k\"\\\n", 4), std::string("\x01\x1f\t\r\x7f\xff", 6))
      .EndObject();
  EXPECT_EQ(json.Take(),
            "{\"k\\\"\\\\\\u000a\":\"\\u0001\\u001f\\u0009\\u000d\x7f\xff\"}");
}

std::string RandomBytes(dfuzz::Mutator& mutator) {
  std::string bytes(mutator.Next() % 24, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(mutator.Next());
  }
  return bytes;
}

double RandomDouble(dfuzz::Mutator& mutator) {
  const uint64_t bits = mutator.Next();
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Random byte strings (fresh, or mutated from seeds full of JSON
// metacharacters) as keys and values, next to random integers and doubles
// (any bit pattern, NaN and infinities included).
TEST(JsonWriterFuzzTest, RandomDocumentsParseAndRoundTrip) {
  const std::vector<std::string> seeds = {
      "plain", "quote\"back\\slash", std::string("nul\0byte", 8), "\n\r\t\b\f",
      "\x01\x1f\x20\x7f\x80\xff", "\\u0041\\", "{\"k\":[1,2]}"};
  dfuzz::Mutator mutator(0x6a736f6e);
  for (int i = 0; i < dfuzz::kIterationsPerDecoder; ++i) {
    struct Entry {
      std::string value;
      int64_t integer;
      double real;
    };
    std::map<std::string, Entry> expected;  // Duplicate keys: the last wins.
    dbase::JsonWriter json;
    json.BeginObject();
    const int fields = 1 + static_cast<int>(mutator.Next() % 4);
    for (int f = 0; f < fields; ++f) {
      const auto pick = [&] {
        return mutator.Next() % 2 == 0 ? RandomBytes(mutator)
                                       : mutator.Mutate(seeds[mutator.Next() % seeds.size()]);
      };
      const std::string key = pick();
      Entry entry{pick(), static_cast<int64_t>(mutator.Next()), RandomDouble(mutator)};
      json.BeginArray(key)
          .Value(entry.value)
          .Value(entry.integer)
          .Value(entry.real)
          .BeginObject()
          .Field(entry.value, key)
          .EndObject()
          .EndArray();
      expected[key] = entry;
    }
    const std::string doc = json.EndObject().Take();
    const std::optional<e2e::Json> parsed = e2e::JsonParser::Parse(doc);
    ASSERT_TRUE(parsed.has_value()) << "iteration " << i << ": " << doc;
    // RFC 8259 forbids raw control bytes in strings; the e2e parser would
    // take them, so check the text itself.
    for (const char c : doc) {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20) << "iteration " << i << ": " << doc;
    }
    ASSERT_EQ(parsed->object.size(), expected.size()) << "iteration " << i;
    for (const auto& [key, entry] : expected) {
      const e2e::Json* array = parsed->Find(key);
      ASSERT_NE(array, nullptr) << "iteration " << i << ": key lost in " << doc;
      ASSERT_EQ(array->array.size(), 4u) << "iteration " << i;
      EXPECT_EQ(array->array[0].string, entry.value) << "iteration " << i;
      EXPECT_EQ(array->array[1].type, e2e::Json::Type::kNumber) << "iteration " << i;
      if (std::isfinite(entry.real)) {
        EXPECT_EQ(array->array[2].number, entry.real) << "iteration " << i;
      } else {
        EXPECT_EQ(array->array[2].type, e2e::Json::Type::kNull) << "iteration " << i;
      }
      const e2e::Json* nested = array->array[3].Find(entry.value);
      ASSERT_NE(nested, nullptr) << "iteration " << i;
      EXPECT_EQ(nested->string, key) << "iteration " << i;
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(BenchReportTest, TableCellWithQuoteBackslashAndNewlineRoundTrips) {
  const std::string path = testing::TempDir() + "json_fuzz_test_bench_report.json";
  ASSERT_EQ(setenv("DANDELION_BENCH_JSON", path.c_str(), 1), 0);
  const std::string cell = "say \"hi\" \\ then\nbreak";
  dbench::PrintHeader("escapes \"here\"");
  dbench::PrintNote("a note\\with\"metacharacters\"");
  dbench::Table table({"name", "value"});
  table.AddRow({cell, ">2000"});
  table.Print();
  dbench::FlushJsonReport();
  unsetenv("DANDELION_BENCH_JSON");

  const std::string doc = ReadFile(path);
  std::remove(path.c_str());
  const std::optional<e2e::Json> report = e2e::JsonParser::Parse(doc);
  ASSERT_TRUE(report.has_value()) << doc;
  EXPECT_EQ(report->Find("schema")->string, "dandelion-bench-v1");
  const e2e::Json* sections = report->Find("sections");
  ASSERT_NE(sections, nullptr);
  ASSERT_EQ(sections->array.size(), 1u) << doc;
  const e2e::Json& section = sections->array[0];
  EXPECT_EQ(section.Find("title")->string, "escapes \"here\"");
  ASSERT_EQ(section.Find("notes")->array.size(), 1u);
  EXPECT_EQ(section.Find("notes")->array[0].string, "a note\\with\"metacharacters\"");
  const e2e::Json* tables = section.Find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->array.size(), 1u) << doc;
  const e2e::Json& printed = tables->array[0];
  ASSERT_EQ(printed.Find("columns")->array.size(), 2u);
  EXPECT_EQ(printed.Find("columns")->array[1].string, "value");
  ASSERT_EQ(printed.Find("rows")->array.size(), 1u);
  const e2e::Json& row = printed.Find("rows")->array[0];
  ASSERT_EQ(row.array.size(), 2u);
  EXPECT_EQ(row.array[0].string, cell);
  EXPECT_EQ(row.array[1].string, ">2000");
}

}  // namespace
