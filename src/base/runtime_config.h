// The one reader of every ADASUM_* variable the library takes (README.md's
// runtime-configuration table). Booleans take on|1|off|0, sizes a positive
// decimal, choices their listed names; empty means unset. Any other value
// keeps the default and warns once per variable per process, naming the
// allowed set. ADASUM_TOPOLOGY and ADASUM_VERIFY_MUTATE are carried verbatim
// for their owners (Topology::parse, the verify mutation table) to validate.
// Consumers parse where they need their variables, so one set before the
// object is built takes effect; a clean parse allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

namespace adasum {

// kAuto defers to the enclosing configuration (AllreduceOptions defers to
// the World); the collectives only ever see a resolved concrete mode.
enum class CompressionMode : std::uint8_t { kAuto, kNone, kInt8, kInt4, kSign };

// Resolved against the build and the CPU by tensor/simd/dispatch.cpp.
enum class SimdChoice : std::uint8_t { kAuto, kScalar, kAvx2 };

struct RuntimeConfig {
  SimdChoice simd = SimdChoice::kAuto;                // ADASUM_SIMD
  std::string_view transport = "mailbox";             // ADASUM_TRANSPORT
  bool pipeline = false;                              // ADASUM_PIPELINE
  std::size_t chunk_bytes = 256 * 1024;               // ADASUM_CHUNK_BYTES
  CompressionMode compress = CompressionMode::kNone;  // ADASUM_COMPRESS
  std::size_t compress_block = 1024;                  // ADASUM_COMPRESS_BLOCK
  bool analyze = false;                               // ADASUM_ANALYZE
  bool autotune = false;                              // ADASUM_AUTOTUNE
  std::string_view topology;                          // ADASUM_TOPOLOGY
  std::string_view verify_mutate;                     // ADASUM_VERIFY_MUTATE

  // Variable name -> value (nullptr = unset); the views point into it.
  using Lookup = std::function<const char*(const char* name)>;
  static RuntimeConfig parse(const Lookup& lookup);
  static RuntimeConfig from_env();  // parse() over the process environment

  bool operator==(const RuntimeConfig&) const = default;
};

// The positive-decimal parser every size and count shares: digits only (no
// sign, space, suffix or exponent), nonzero, no overflow.
std::optional<std::size_t> parse_positive_decimal(std::string_view s);

// Logs "<name>=<value> is not <allowed>; using <fallback>", once per
// variable per process; `name` is one of the variables above.
void warn_bad_setting(std::string_view name, std::string_view value,
                      std::string_view allowed, std::string_view fallback);

}  // namespace adasum
