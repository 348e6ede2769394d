#include "comm/topology.h"

#include "base/runtime_config.h"

namespace adasum {
namespace {

// A positive count of at most 9 digits; nullopt on anything else.
std::optional<int> parse_positive_int(std::string_view s) {
  const std::optional<std::size_t> n = parse_positive_decimal(s);
  if (!n || *n > 999'999'999) return std::nullopt;
  return static_cast<int>(*n);
}

std::optional<LinkParams> link_by_name(std::string_view name) {
  if (name == "nvlink") return links::nvlink();
  if (name == "pcie3") return links::pcie3();
  if (name == "ib100") return links::infiniband100();
  if (name == "tcp40") return links::tcp40();
  if (name == "shm") return links::shm_zero_copy();
  return std::nullopt;
}

}  // namespace

std::optional<Topology> Topology::parse(std::string_view spec) {
  if (spec.empty()) return std::nullopt;
  // Named presets first.
  if (spec == "azure_fig4") return azure_fig4();
  if (spec == "tcp_cluster") return tcp_cluster();
  if (spec.substr(0, 5) == "dgx2:") {
    const std::optional<int> nodes = parse_positive_int(spec.substr(5));
    if (!nodes) return std::nullopt;
    return dgx2(*nodes);
  }
  // "<nodes>x<gpus>[:<intra>/<inter>]".
  const std::size_t colon = spec.find(':');
  const std::string_view shape = spec.substr(0, colon);
  const std::size_t x = shape.find('x');
  if (x == std::string_view::npos) return std::nullopt;
  const std::optional<int> nodes = parse_positive_int(shape.substr(0, x));
  const std::optional<int> gpus = parse_positive_int(shape.substr(x + 1));
  if (!nodes || !gpus) return std::nullopt;
  LinkParams intra = links::nvlink();
  LinkParams inter = links::infiniband100();
  if (colon != std::string_view::npos) {
    const std::string_view pair = spec.substr(colon + 1);
    const std::size_t slash = pair.find('/');
    if (slash == std::string_view::npos) return std::nullopt;
    const std::optional<LinkParams> in = link_by_name(pair.substr(0, slash));
    const std::optional<LinkParams> out = link_by_name(pair.substr(slash + 1));
    if (!in || !out) return std::nullopt;
    intra = *in;
    inter = *out;
  }
  return cluster(*nodes, *gpus, intra, inter);
}

}  // namespace adasum
