#include "attribution.hpp"

#include <algorithm>
#include <iterator>

namespace perfbench {
namespace {

// Class (or free-function) names that split src/sim and src/core into
// sub-layers. A gcr::sim name not listed here is "other" (fault, churn and
// jitter models, the cluster assembly); a gcr::core name not listed is
// protocol code.
constexpr std::string_view kSimEngine[] = {
    "Engine",   "ShardedEngine", "WaiterHandle", "Proc",        "RootTask",
    "Delay",    "delay",         "Trigger",      "Semaphore",   "ScopedPermit",
    "CountBarrier", "Channel",   "SmallFn",      "Co",          "CoPromiseBase",
    "FinalAwaiter", "ProcessKilled"};
constexpr std::string_view kSimNetwork[] = {
    "Network",          "NetParams",         "Topology",
    "FlatTopology",     "FatTreeTopology",   "DragonflyTopology",
    "Route",            "make_topology",     "parse_topology_kind",
    "pick_bw",          "derive_fattree_k",  "derive_dragonfly_p"};
constexpr std::string_view kSimStorage[] = {"StorageDevice",
                                                         "StorageParams"};
constexpr std::string_view kCoreMsglog[] = {"MessageLog"};
constexpr std::string_view kCoreRecovery[] = {
    "RecoveryManager", "RecoveryOptions", "ChurnOptions", "RegroupPlanner",
    "TrafficMatrix"};

template <std::size_t N>
bool listed(const std::string_view (&names)[N], std::string_view name) {
  return std::find(std::begin(names), std::end(names), name) !=
         std::end(names);
}

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Length of the operator symbol following "operator" at `pos`, so that
/// "operator<", "operator()" and "operator->" do not unbalance the bracket
/// depth.
std::size_t operator_symbol_len(std::string_view s, std::size_t pos) {
  if (s.compare(pos, 2, "()") == 0 || s.compare(pos, 2, "[]") == 0) return 2;
  std::size_t n = 0;
  while (pos + n < s.size() &&
         std::string_view("<>=!+-*/%^&|~,").find(s[pos + n]) !=
             std::string_view::npos) {
    ++n;
  }
  return n;
}

/// Splits `s` at depth 0 wherever `at(s, i)` returns a separator length > 0.
template <class SepFn>
std::vector<std::string> split_depth0(std::string_view s, SepFn at) {
  std::vector<std::string> parts;
  std::string cur;
  int depth = 0;
  for (std::size_t i = 0; i < s.size();) {
    if (s.compare(i, 8, "operator") == 0 &&
        (i == 0 || !is_ident_char(s[i - 1]))) {
      const std::size_t n = 8 + operator_symbol_len(s, i + 8);
      cur.append(s.substr(i, n));
      i += n;
      continue;
    }
    if (s.compare(i, 2, "->") == 0) {
      cur.append("->");
      i += 2;
      continue;
    }
    const char c = s[i];
    if (depth == 0) {
      const std::size_t sep = at(s, i);
      if (sep > 0) {
        if (!cur.empty()) parts.push_back(cur);
        cur.clear();
        i += sep;
        continue;
      }
    }
    if (c == '<' || c == '(' || c == '{' || c == '[') ++depth;
    if ((c == '>' || c == ')' || c == '}' || c == ']') && depth > 0) --depth;
    cur.push_back(c);
    ++i;
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

/// One `::` component without its template arguments or parameter list.
std::string component_name(const std::string& comp) {
  if (comp.empty() || comp.front() == '(' || comp.front() == '{') return comp;
  const std::size_t cut = comp.find_first_of("<([");
  return cut == std::string::npos ? comp : comp.substr(0, cut);
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSimEngine: return "sim.engine";
    case Layer::kSimNetwork: return "sim.network";
    case Layer::kSimStorage: return "sim.storage";
    case Layer::kSimOther: return "sim.other";
    case Layer::kMpi: return "mpi";
    case Layer::kCoreProtocol: return "core.protocol";
    case Layer::kCoreMsglog: return "core.msglog";
    case Layer::kCoreRecovery: return "core.recovery";
    case Layer::kCkpt: return "ckpt";
    case Layer::kApps: return "apps";
    case Layer::kGroup: return "group";
    case Layer::kTrace: return "trace";
    case Layer::kExp: return "exp";
    case Layer::kUnattributed: return "unattributed";
  }
  return "?";
}

std::vector<std::string> qualified_name(std::string_view demangled) {
  std::string_view s = demangled;
  while (!s.empty() && s.back() == ']') {
    const std::size_t pos = s.rfind(" [clone ");
    if (pos == std::string_view::npos) break;
    s = s.substr(0, pos);
  }
  // The function name is the last space-separated token at bracket depth 0
  // that is not a trailing qualifier; earlier tokens are the return type.
  const std::vector<std::string> tokens = split_depth0(
      s, [](std::string_view str, std::size_t i) -> std::size_t {
        return str[i] == ' ' ? 1 : 0;
      });
  std::string name;
  for (auto it = tokens.rbegin(); it != tokens.rend(); ++it) {
    if (*it != "const" && *it != "volatile" && *it != "&" && *it != "&&" &&
        *it != "noexcept") {
      name = *it;
      break;
    }
  }
  std::vector<std::string> comps = split_depth0(
      name, [](std::string_view str, std::size_t i) -> std::size_t {
        return str.compare(i, 2, "::") == 0 ? 2 : 0;
      });
  for (std::string& c : comps) c = component_name(c);
  return comps;
}

std::optional<Layer> frame_layer(std::string_view demangled) {
  const std::vector<std::string> comps = qualified_name(demangled);
  if (comps.size() < 3 || comps[0] != "gcr") return std::nullopt;
  const std::string& module = comps[1];
  std::string_view ident = comps[2];
  if (ident == "(anonymous namespace)" && comps.size() > 3) ident = comps[3];
  if (module == "sim") {
    if (listed(kSimEngine, ident)) return Layer::kSimEngine;
    if (listed(kSimNetwork, ident)) return Layer::kSimNetwork;
    if (listed(kSimStorage, ident)) return Layer::kSimStorage;
    return Layer::kSimOther;
  }
  if (module == "core") {
    if (listed(kCoreMsglog, ident)) return Layer::kCoreMsglog;
    if (listed(kCoreRecovery, ident)) return Layer::kCoreRecovery;
    return Layer::kCoreProtocol;
  }
  if (module == "mpi") return Layer::kMpi;
  if (module == "ckpt") return Layer::kCkpt;
  if (module == "apps") return Layer::kApps;
  if (module == "group") return Layer::kGroup;
  if (module == "trace") return Layer::kTrace;
  if (module == "exp") return Layer::kExp;
  return std::nullopt;
}

Attribution attribute(const std::vector<Frame>& frames) {
  Attribution out;
  out.runtime_lib = !frames.empty() && !frames.front().in_program;
  for (const Frame& f : frames) {
    if (!f.in_program) continue;
    if (const std::optional<Layer> layer = frame_layer(f.name)) {
      out.layer = *layer;
      break;
    }
  }
  return out;
}

}  // namespace perfbench
