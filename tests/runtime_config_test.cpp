// RuntimeConfig (base/runtime_config.h) driven by a fake lookup, so no test
// here touches the process environment: every valid spelling of every
// ADASUM_* variable, the rejected values, empty and unset, the once-per-
// variable warning, and a clean parse without heap allocations.
#include "base/runtime_config.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "heap_counter.h"

namespace adasum {
namespace {

// The configuration of an environment holding only `name=value`.
RuntimeConfig parse_one(const char* name, const char* value) {
  return RuntimeConfig::parse([&](const char* n) -> const char* {
    return std::strcmp(n, name) == 0 ? value : nullptr;
  });
}

struct Case {
  const char* name;
  const char* value;
  RuntimeConfig want;  // the defaults with this variable's field set
};

// Every valid spelling of every variable.
const Case kValid[] = {
    {"ADASUM_SIMD", "auto", {}},
    {"ADASUM_SIMD", "scalar", {.simd = SimdChoice::kScalar}},
    {"ADASUM_SIMD", "avx2", {.simd = SimdChoice::kAvx2}},
    {"ADASUM_TRANSPORT", "mailbox", {}},
    {"ADASUM_TRANSPORT", "shm", {.transport = "shm"}},
    {"ADASUM_PIPELINE", "on", {.pipeline = true}},
    {"ADASUM_PIPELINE", "1", {.pipeline = true}},
    {"ADASUM_PIPELINE", "off", {}},
    {"ADASUM_PIPELINE", "0", {}},
    {"ADASUM_CHUNK_BYTES", "4096", {.chunk_bytes = 4096}},
    {"ADASUM_CHUNK_BYTES", "2", {.chunk_bytes = 2}},
    {"ADASUM_COMPRESS", "off", {}},
    {"ADASUM_COMPRESS", "int8", {.compress = CompressionMode::kInt8}},
    {"ADASUM_COMPRESS", "int4", {.compress = CompressionMode::kInt4}},
    {"ADASUM_COMPRESS", "sign", {.compress = CompressionMode::kSign}},
    {"ADASUM_COMPRESS", "1bit", {.compress = CompressionMode::kSign}},
    {"ADASUM_COMPRESS_BLOCK", "32", {.compress_block = 32}},
    {"ADASUM_COMPRESS_BLOCK", "2", {.compress_block = 2}},
    {"ADASUM_ANALYZE", "on", {.analyze = true}},
    {"ADASUM_ANALYZE", "1", {.analyze = true}},
    {"ADASUM_ANALYZE", "off", {}},
    {"ADASUM_ANALYZE", "0", {}},
    {"ADASUM_AUTOTUNE", "on", {.autotune = true}},
    {"ADASUM_AUTOTUNE", "1", {.autotune = true}},
    {"ADASUM_AUTOTUNE", "off", {}},
    {"ADASUM_AUTOTUNE", "0", {}},
    // Carried verbatim: Topology::parse and the mutation table validate.
    {"ADASUM_TOPOLOGY", "4x2:nvlink/tcp40", {.topology = "4x2:nvlink/tcp40"}},
    {"ADASUM_TOPOLOGY", "banana", {.topology = "banana"}},
    {"ADASUM_VERIFY_MUTATE", "drop_sfence", {.verify_mutate = "drop_sfence"}},
};

// Each parsed variable's warning for its first rejected value, "-1".
const std::pair<const char*, const char*> kWarnings[] = {
    {"ADASUM_SIMD", "-1 is not one of auto|scalar|avx2; using auto"},
    {"ADASUM_TRANSPORT", "-1 is not one of mailbox|shm; using mailbox"},
    {"ADASUM_PIPELINE", "-1 is not one of on|1|off|0; using off"},
    {"ADASUM_CHUNK_BYTES",
     "-1 is not a positive decimal byte count; using 262144"},
    {"ADASUM_COMPRESS", "-1 is not one of off|int8|int4|sign|1bit; using off"},
    {"ADASUM_COMPRESS_BLOCK",
     "-1 is not a positive decimal byte count; using 1024"},
    {"ADASUM_ANALYZE", "-1 is not one of on|1|off|0; using off"},
    {"ADASUM_AUTOTUNE", "-1 is not one of on|1|off|0; using off"},
};

bool is_valid(const char* name, const char* value) {
  for (const Case& c : kValid)
    if (std::strcmp(c.name, name) == 0 && std::strcmp(c.value, value) == 0)
      return true;
  return false;
}

std::size_t count(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1))
    ++n;
  return n;
}

// One test, so the process's warned-once flags are fresh for it.
TEST(RuntimeConfig, EveryVariableParsesFromOneTable) {
  for (const Case& c : kValid) {
    EXPECT_EQ(parse_one(c.name, c.value), c.want) << c.name << "=" << c.value;
    EXPECT_EQ(parse_one(c.name, nullptr), RuntimeConfig{}) << c.name;
    EXPECT_EQ(parse_one(c.name, ""), RuntimeConfig{}) << c.name << "=";
  }
  std::ostringstream log;
  std::streambuf* const saved = std::cerr.rdbuf(log.rdbuf());
  for (const auto& [name, warning] : kWarnings) {
    for (const char* bad : {"-1", "4k", "0", " 64", "+64", "1e3",
                            "99999999999999999999", "true", "yes", "ON", "2",
                            "int-8", "tcp", "auto ", "bogus"}) {
      if (is_valid(name, bad)) continue;
      EXPECT_EQ(parse_one(name, bad), RuntimeConfig{}) << name << "=" << bad;
    }
  }
  std::cerr.rdbuf(saved);
  for (const auto& [name, warning] : kWarnings) {
    EXPECT_EQ(count(log.str(), std::string(name) + "="), 1u) << log.str();
    EXPECT_EQ(count(log.str(), std::string(name) + "=" + warning), 1u)
        << log.str();
  }
}

// A clean parse, whether a variable is set or not, allocates nothing.
TEST(RuntimeConfig, CleanParseAllocatesNothing) {
  const std::uint64_t before = g_heap_allocs.load();
  bool parsed = true;
  for (const Case& c : kValid) {
    parsed &= parse_one(c.name, c.value) == c.want;
    parsed &= parse_one(c.name, nullptr) == RuntimeConfig{};
  }
  EXPECT_EQ(g_heap_allocs.load() - before, 0u);
  EXPECT_TRUE(parsed);
}

}  // namespace
}  // namespace adasum
