#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>

#include <unistd.h>

namespace perfbench {

std::uint64_t now_ns() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[++i];
    } else {
      values_.insert_or_assign(key, std::string(1, '1'));
    }
  }
}

std::string Args::str(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::uint64_t Args::u64(const std::string& key, std::uint64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtoull(it->second.c_str(), nullptr, 10);
}

std::optional<sacha::net::DeviceScale> parse_device(const std::string& name) {
  if (name == "small") return sacha::net::DeviceScale::kSmall;
  if (name == "virtex6") return sacha::net::DeviceScale::kVirtex6;
  return std::nullopt;
}

sacha::net::FleetSpec fleet_for(std::uint64_t seed,
                                sacha::net::DeviceScale scale) {
  sacha::net::FleetSpec fleet;
  fleet.base_seed = seed;
  fleet.session_seed = seed * 2654435761ULL + 17;
  fleet.scale = scale;
  return fleet;
}

bool tampered_member(std::uint64_t seed, std::uint64_t index,
                     std::uint64_t period) {
  if (period == 0) return false;
  // splitmix64 over (seed, index): independent of thread count and timing.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z % period == 0;
}

bool verdict_as_expected(bool tampered, bool attested,
                         const std::optional<sacha::crypto::Mac>& verifier_mac,
                         const std::optional<sacha::crypto::Mac>& prover_mac) {
  if (tampered) return !attested;
  return attested && verifier_mac.has_value() && prover_mac.has_value() &&
         *verifier_mac == *prover_mac;
}

void wait_stdin_eof(std::atomic<bool>& stop) {
  char buf[256];
  while (true) {
    const ssize_t got = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (got == 0) break;
    if (got < 0 && errno != EINTR) break;
  }
  stop.store(true);
}

void print_batches(const std::vector<Batch>& batches,
                   const std::vector<std::string>& errors) {
  std::string out = "{\"batches\": [";
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const Batch& batch = batches[b];
    if (b > 0) out += ", ";
    out += '[';
    for (const std::uint64_t field :
         {batch.start_ns, batch.end_ns, batch.attempted, batch.ok}) {
      out += std::to_string(field);
      out += ", ";
    }
    out += '[';
    for (std::size_t i = 0; i < batch.latencies_ns.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(batch.latencies_ns[i]);
    }
    out += "]]";
  }
  out += "], \"errors\": [";
  for (std::size_t e = 0; e < errors.size(); ++e) {
    if (e > 0) out += ", ";
    out += "\"";
    for (char c : errors[e]) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    out += "\"";
  }
  out += "]}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
