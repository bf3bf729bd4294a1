// perfbench_tool: the compiled half of the end-to-end benchmark, which
// run.py invokes. Subcommands:
//
//   context       run context: compiler, flags, build type, ISA tier
//   gen           seeded zipf binary edge file, streamed to disk
//   exact         exact coverage of a set family over an edge file
//   wire          open-loop load generator + reference checks for a server
//   trace-kcover  traced in-process replay of the file k-cover job
//   trace-fleet   traced in-process replay of the fleet layers
//
// Every subcommand prints one JSON object on its last stdout line.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <tuple>

#include "common.hpp"
#include "hash/simd/cpu_features.hpp"
#include "tool.hpp"

namespace perfbench {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      die("expected --key=value, got '" + arg + "'");
    }
    values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
}

std::string Flags::str(const std::string& key) {
  used_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) die("missing flag --" + key);
  return it->second;
}

std::uint64_t Flags::u64(const std::string& key) {
  const std::string text = str(key);
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') die("bad integer for --" + key);
  return value;
}

double Flags::f64(const std::string& key) {
  const std::string text = str(key);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0') die("bad number for --" + key);
  return value;
}

void Flags::finish() const {
  for (const auto& [key, value] : values_) {
    if (used_.count(key) == 0) die("unknown flag --" + key);
  }
}

void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  std::exit(2);
}

ZipfAlias::ZipfAlias(std::size_t support, double alpha)
    : threshold_(support), alias_(support) {
  if (support == 0 || support > 0xffffffffULL) die("zipf support out of range");
  std::vector<double> scaled(support);
  double total = 0.0;
  for (std::size_t i = 0; i < support; ++i) {
    scaled[i] = std::pow(static_cast<double>(i + 1), -alpha);
    total += scaled[i];
  }
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::size_t i = 0; i < support; ++i) {
    scaled[i] *= static_cast<double>(support) / total;
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    threshold_[s] = static_cast<std::uint32_t>(
        std::min(scaled[s] * 4294967296.0, 4294967295.0));
    alias_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (const std::uint32_t i : small) threshold_[i] = 0xffffffffU, alias_[i] = i;
  for (const std::uint32_t i : large) threshold_[i] = 0xffffffffU, alias_[i] = i;
}

ZipfSets::ZipfSets(const ZipfShape& shape, std::uint64_t seed)
    : shape_(shape),
      rng_(seed),
      sizes_(shape.max_size - shape.min_size + 1, shape.alpha_sets),
      elems_(static_cast<std::size_t>(shape.num_elems), shape.alpha_elems),
      relabel_(static_cast<std::size_t>(shape.num_elems)),
      stamp_(static_cast<std::size_t>(shape.num_elems), 0) {
  for (std::size_t e = 0; e < relabel_.size(); ++e) {
    relabel_[e] = static_cast<std::uint32_t>(e);
  }
  shuffle(relabel_, rng_);
}

bool ZipfSets::next_set(SetId* set, std::vector<ElemId>* elems) {
  if (next_ == shape_.num_sets) return false;
  *set = next_++;
  elems->clear();
  const std::size_t size = shape_.min_size + sizes_.sample(rng_);
  for (std::size_t i = 0; i < size; ++i) {
    const std::size_t rank = elems_.sample(rng_);
    if (stamp_[rank] != *set + 1) {
      stamp_[rank] = *set + 1;
      elems->push_back(relabel_[rank]);
    }
  }
  draws_ += size;
  return true;
}

EdgeCycle::EdgeCycle(const ZipfShape& shape, std::uint64_t seed) {
  ZipfSets sets(shape, seed);
  SetId set = 0;
  std::vector<ElemId> elems;
  while (sets.next_set(&set, &elems)) {
    for (const ElemId elem : elems) edges_.push_back({set, elem});
  }
  SeededRng rng(mix64(seed ^ 0x0ddc0ffeeULL));
  shuffle(edges_, rng);
}

std::vector<SetId> random_family(SeededRng& rng, SetId num_sets,
                                 std::size_t count) {
  std::vector<SetId> family;
  std::set<SetId> seen;
  while (family.size() < count && family.size() < num_sets) {
    const SetId s = static_cast<SetId>(rng.below(num_sets));
    if (seen.insert(s).second) family.push_back(s);
  }
  return family;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  std::vector<int> depth(spans_.size(), -1);
  const auto depth_of = [&](std::size_t i, const auto& self) -> int {
    if (depth[i] >= 0) return depth[i];
    const auto parent = index.find(spans_[i].parent);
    depth[i] = parent == index.end() ? 0 : self(parent->second, self) + 1;
    return depth[i];
  };
  struct Event {
    std::int64_t at;
    bool open;
    std::size_t span;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    depth_of(i, depth_of);
    events.push_back({spans_[i].start_ns, true, i});
    events.push_back({spans_[i].end_ns, false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.at != b.at ? a.at < b.at : (!a.open && b.open);
  });
  // Active spans ordered by (depth, start): the deepest, latest-started one
  // owns the current instant.
  std::set<std::tuple<int, std::int64_t, std::size_t>> active;
  std::map<std::string, double> self;
  std::int64_t last = events.empty() ? 0 : events.front().at;
  for (const Event& event : events) {
    if (!active.empty() && event.at > last) {
      const std::size_t owner = std::get<2>(*active.rbegin());
      self[spans_[owner].name] += static_cast<double>(event.at - last) * 1e-9;
    }
    last = event.at;
    const auto key = std::make_tuple(depth[event.span],
                                     spans_[event.span].start_ns, event.span);
    if (event.open) {
      active.insert(key);
    } else {
      active.erase(key);
    }
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << json_escape(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

void JsonOut::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\": ";
}

JsonOut& JsonOut::num(const std::string& k, double value) {
  key(k);
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g",
                std::isfinite(value) ? value : 0.0);
  body_ += buffer;
  return *this;
}

JsonOut& JsonOut::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonOut& JsonOut::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

int cmd_context(Flags& flags) {
  flags.finish();
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf("%s\n", JsonOut()
                          .str("compiler", compiler)
                          .str("cxx_flags", PERFBENCH_CXX_FLAGS)
                          .str("build_type", PERFBENCH_BUILD_TYPE)
                          .str("isa", covstream::isa_name(covstream::active_isa()))
                          .str("cpu_features", covstream::cpu_features().describe())
                          .done()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) die("usage: perfbench_tool <subcommand> [--key=value ...]");
  const std::string cmd = argv[1];
  Flags flags(argc, argv, 2);
  if (cmd == "context") return cmd_context(flags);
  if (cmd == "gen") return cmd_gen(flags);
  if (cmd == "exact") return cmd_exact(flags);
  if (cmd == "wire") return cmd_wire(flags);
  if (cmd == "trace-kcover") return cmd_trace_kcover(flags);
  if (cmd == "trace-fleet") return cmd_trace_fleet(flags);
  die("unknown subcommand '" + cmd + "'");
}
