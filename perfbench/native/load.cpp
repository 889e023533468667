// Closed-loop socket load: `threads` client threads, each calling
// net::run_load over its own member_offset slice with `conns` connections,
// back to back, until stdin closes. Every member's verdict and MAC is
// checked; run.py places the timed batches inside its measured window.
#include <cstdio>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "net/attest_client.hpp"
#include "net/tcp.hpp"

namespace perfbench {

namespace {

/// Registry slots per client thread; setup probes use the slot above all
/// thread slices so they never collide with a measured member.
constexpr std::uint64_t kThreadSlice = 1ULL << 24;
constexpr std::uint64_t kProbeBase = 3ULL << 30;

struct Shared {
  std::mutex mu;
  std::vector<Batch> batches;
  std::vector<std::string> errors;
  std::atomic<std::uint64_t> sessions{0};
};

Batch run_batch(const sacha::net::LoadOptions& base, std::uint64_t offset,
                std::size_t members, std::uint64_t tamper_period,
                std::vector<std::string>& errors) {
  sacha::net::LoadOptions options = base;
  options.member_offset = offset;
  options.members = members;
  for (std::size_t i = 0; i < members; ++i) {
    if (tampered_member(options.fleet.base_seed, offset + i, tamper_period)) {
      options.tampered.insert(i);
    }
  }
  Batch batch;
  batch.start_ns = now_ns();
  const sacha::net::LoadResult result = sacha::net::run_load(options);
  batch.end_ns = now_ns();
  batch.attempted = result.members.size();
  for (const sacha::net::MemberOutcome& m : result.members) {
    const bool tampered = options.tampered.count(m.index) > 0;
    std::optional<sacha::crypto::Mac> verifier_mac;
    if (m.completed && m.report.mac_present) verifier_mac = m.report.mac;
    if (m.completed && verdict_as_expected(tampered, m.report.attested(),
                                           verifier_mac, m.client_mac)) {
      ++batch.ok;
      batch.latencies_ns.push_back(m.latency_ns);
    } else if (errors.size() < 8) {
      errors.push_back("member " + std::to_string(offset + m.index) +
                       (tampered ? " (tampered)" : " (honest)") +
                       ": completed=" + std::to_string(m.completed) +
                       " attested=" + std::to_string(m.report.attested()) +
                       " " + m.error + " " + m.report.detail);
    }
  }
  return batch;
}

}  // namespace

int load_main(const Args& args) {
  auto hostport = sacha::net::parse_host_port(args.str("connect", ""));
  const auto scale = parse_device(args.str("device", "small"));
  if (!hostport.ok() || !scale.has_value()) {
    std::fprintf(stderr, "load: need --connect HOST:PORT and --device\n");
    return 2;
  }
  sacha::net::LoadOptions base;
  base.host = hostport.value().host;
  base.port = hostport.value().port;
  base.fleet = fleet_for(args.u64("seed", 1), *scale);
  base.concurrency = args.u64("conns", 1);
  base.trace_sample = 0.0;
  base.timeout_ms = 60000;
  const std::uint64_t tamper_period = args.u64("tamper-period", 16);

  if (args.has("once")) {
    // Set-up probe: one honest member, verdict checked, exit code tells.
    std::uint64_t slot = kProbeBase;
    while (tampered_member(base.fleet.base_seed, slot, tamper_period)) ++slot;
    std::vector<std::string> errors;
    const Batch batch = run_batch(base, slot, 1, tamper_period, errors);
    for (const std::string& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
    return batch.ok == 1 ? 0 : 1;
  }

  const std::size_t threads = args.u64("threads", 2);
  const std::size_t members = args.u64("batch", base.concurrency);
  const std::uint64_t warmup = args.u64("warmup", 1);
  std::atomic<bool> stop{false};
  Shared shared;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<std::string> errors;
      for (std::uint64_t k = 0; !stop.load(); ++k) {
        Batch batch = run_batch(base, t * kThreadSlice + k * members, members,
                                tamper_period, errors);
        shared.sessions.fetch_add(batch.attempted);
        std::lock_guard<std::mutex> lock(shared.mu);
        shared.batches.push_back(std::move(batch));
      }
      std::lock_guard<std::mutex> lock(shared.mu);
      for (std::string& e : errors) shared.errors.push_back(std::move(e));
    });
  }
  // Warm-up: run.py opens its window only after every thread finished
  // `warmup` sessions (fresh servers run slower for their first sessions).
  std::thread stdin_watch([&] { wait_stdin_eof(stop); });
  while (!stop.load() && shared.sessions.load() < warmup * threads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::printf("warm %llu\n", static_cast<unsigned long long>(now_ns()));
  std::fflush(stdout);
  stdin_watch.join();
  for (std::thread& th : pool) th.join();
  print_batches(shared.batches, shared.errors);
  return 0;
}

}  // namespace perfbench
