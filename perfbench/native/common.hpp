// Shared plumbing for the benchmark's native tools: argument parsing, the
// monotonic clock run.py also reads, the seeded tamper choice, the stdin
// stop handle, and the verdict check every workload applies.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/cmac.hpp"
#include "net/provision.hpp"

namespace perfbench {

/// CLOCK_MONOTONIC nanoseconds — the clock Python's time.monotonic_ns()
/// reads, so run.py can place these timestamps inside its window.
std::uint64_t now_ns();

/// `--key value` options; a trailing `--flag` without value reads as "1".
class Args {
 public:
  Args(int argc, char** argv, int first);
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  std::string str(const std::string& key, const std::string& fallback) const;
  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// kSmall / kVirtex6 from "small" / "virtex6"; nullopt otherwise.
std::optional<sacha::net::DeviceScale> parse_device(const std::string& name);

/// The workload fleet for `seed`: base_seed = seed, and a session seed
/// derived from it, so one --seed fixes both.
sacha::net::FleetSpec fleet_for(std::uint64_t seed,
                                sacha::net::DeviceScale scale);

/// One member in `period` of the fleet seeded `seed` runs tampered
/// (net::standard_tamper); a pure function of (seed, registry index).
bool tampered_member(std::uint64_t seed, std::uint64_t index,
                     std::uint64_t period);

/// The verdict contract of every workload: an honest member passes and the
/// prover's H_Prv equals the verifier's MAC; a tampered member is rejected.
bool verdict_as_expected(bool tampered, bool attested,
                         const std::optional<sacha::crypto::Mac>& verifier_mac,
                         const std::optional<sacha::crypto::Mac>& prover_mac);

/// Sets `stop` once stdin reaches EOF (run.py's stop handle). Runs on a
/// thread of its own; returns when stop is set.
void wait_stdin_eof(std::atomic<bool>& stop);

/// One timed unit of closed-loop work: a run_load call or a replay group.
struct Batch {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::vector<std::uint64_t> latencies_ns;  // sessions that were ok
};

/// Prints {"batches": [[start, end, attempted, ok, [latencies...]], ...],
/// "errors": [...]} as one line on stdout.
void print_batches(const std::vector<Batch>& batches,
                   const std::vector<std::string>& errors);

int load_main(const Args& args);
int replay_main(const Args& args);
int traced_main(const Args& args);

}  // namespace perfbench
