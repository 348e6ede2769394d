#include "base/runtime_config.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <initializer_list>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>

#include "base/check.h"
#include "base/logging.h"

namespace adasum {
namespace {

// Every settable variable, each with its own warned-once flag.
constexpr std::string_view kVariables[] = {
    "ADASUM_SIMD",        "ADASUM_TRANSPORT", "ADASUM_PIPELINE",
    "ADASUM_CHUNK_BYTES", "ADASUM_COMPRESS",  "ADASUM_COMPRESS_BLOCK",
    "ADASUM_ANALYZE",     "ADASUM_AUTOTUNE",  "ADASUM_TOPOLOGY",
    "ADASUM_VERIFY_MUTATE"};
std::atomic<bool> g_warned[std::size(kVariables)];

// A variable's names and the values they select; T is deduced from the field.
template <class T>
using Choices =
    std::initializer_list<std::pair<std::string_view, std::type_identity_t<T>>>;

std::string_view value_of(const RuntimeConfig::Lookup& lookup,
                          const char* name) {
  const char* v = lookup(name);
  return v != nullptr ? v : "";
}

// Sets `field` to the value of the choice the variable names; an unknown
// name keeps the default and warns with the names in `choices`.
template <class T>
void read_choice(const RuntimeConfig::Lookup& lookup, const char* name,
                 T& field, Choices<T> choices) {
  const std::string_view v = value_of(lookup, name);
  if (v.empty()) return;
  for (const auto& [choice, value] : choices) {
    if (choice == v) {
      field = value;
      return;
    }
  }
  std::string allowed = "one of ";
  std::string_view fallback;
  for (const auto& [choice, value] : choices) {
    allowed.append(choice).append("|");
    if (fallback.empty() && value == field) fallback = choice;
  }
  allowed.pop_back();
  warn_bad_setting(name, v, allowed, fallback);
}

void read_size(const RuntimeConfig::Lookup& lookup, const char* name,
               std::size_t& field) {
  const std::string_view v = value_of(lookup, name);
  if (v.empty()) return;
  if (const std::optional<std::size_t> n = parse_positive_decimal(v))
    field = *n;
  else
    warn_bad_setting(name, v, "a positive decimal byte count",
                     std::to_string(field));
}

}  // namespace

// The one table: each variable, its field and its allowed values.
RuntimeConfig RuntimeConfig::parse(const Lookup& lookup) {
  const Choices<bool> on_off = {
      {"on", true}, {"1", true}, {"off", false}, {"0", false}};
  RuntimeConfig c;
  read_choice(lookup, "ADASUM_SIMD", c.simd,
              {{"auto", SimdChoice::kAuto},
               {"scalar", SimdChoice::kScalar},
               {"avx2", SimdChoice::kAvx2}});
  read_choice(lookup, "ADASUM_TRANSPORT", c.transport,
              {{"mailbox", "mailbox"}, {"shm", "shm"}});
  read_choice(lookup, "ADASUM_PIPELINE", c.pipeline, on_off);
  read_size(lookup, "ADASUM_CHUNK_BYTES", c.chunk_bytes);
  read_choice(lookup, "ADASUM_COMPRESS", c.compress,
              {{"off", CompressionMode::kNone},
               {"int8", CompressionMode::kInt8},
               {"int4", CompressionMode::kInt4},
               {"sign", CompressionMode::kSign},
               {"1bit", CompressionMode::kSign}});
  read_size(lookup, "ADASUM_COMPRESS_BLOCK", c.compress_block);
  read_choice(lookup, "ADASUM_ANALYZE", c.analyze, on_off);
  read_choice(lookup, "ADASUM_AUTOTUNE", c.autotune, on_off);
  c.topology = value_of(lookup, "ADASUM_TOPOLOGY");
  c.verify_mutate = value_of(lookup, "ADASUM_VERIFY_MUTATE");
  return c;
}

RuntimeConfig RuntimeConfig::from_env() {
  return parse([](const char* name) { return std::getenv(name); });
}

std::optional<std::size_t> parse_positive_decimal(std::string_view s) {
  std::size_t n = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
  if (ec != std::errc() || end != s.data() + s.size() || n == 0)
    return std::nullopt;
  return n;
}

void warn_bad_setting(std::string_view name, std::string_view value,
                      std::string_view allowed, std::string_view fallback) {
  const auto* it =
      std::find(std::begin(kVariables), std::end(kVariables), name);
  ADASUM_CHECK_MSG(it != std::end(kVariables), "not an ADASUM_* variable");
  if (g_warned[it - std::begin(kVariables)].exchange(true)) return;
  ADASUM_LOG(Warning) << name << "=" << value << " is not " << allowed
                      << "; using " << fallback;
}

}  // namespace adasum
