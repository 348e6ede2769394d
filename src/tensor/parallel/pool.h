// What perfbench's config line prints for the intra-op helper pool, which
// was removed (DESIGN.md §17); the next benchmark change deletes this stub.
#pragma once

namespace adasum::parallel {

inline const char* env_setting() { return "off"; }
inline int threads() { return 0; }

}  // namespace adasum::parallel
