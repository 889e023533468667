// v6_replay: verifier compute without socket or prover. Set-up captures
// the kReplayTranscripts paper-scale transcripts (one tampered, chosen by
// the seed) from live in-process sessions; the run replays them through
// net::verifier_for + core::VerifierSession, all of them interleaved per
// CmacBatch, on kLanes threads until stdin closes.
#include <cstdio>
#include <mutex>
#include <thread>

#include "inproc.hpp"

namespace perfbench {

namespace {

// Several replay lanes, each looping over every transcript, so the run
// averages over CPUs instead of riding one CPU's share of the host.
constexpr std::size_t kLanes = 2;

}  // namespace

int replay_main(const Args& args) {
  const auto scale = parse_device(args.str("device", "virtex6"));
  if (!scale.has_value()) {
    std::fprintf(stderr, "replay: bad --device\n");
    return 2;
  }
  const std::uint64_t seed = args.u64("seed", 1);
  const sacha::net::FleetSpec fleet = fleet_for(seed, *scale);

  std::vector<Transcript> transcripts;
  // Keeps the golden model interned for the whole run, as attestd's live
  // sessions do; this first call is the cold build.
  const sacha::core::SachaVerifier keeper =
      sacha::net::verifier_for(sacha::net::member_hello(fleet, 0));
  if (!capture_transcripts(fleet, seed, 0, 1, transcripts)) return 1;
  std::printf("first_verdict %llu\n", static_cast<unsigned long long>(now_ns()));
  std::fflush(stdout);
  if (args.has("setup-only")) return 0;
  if (!capture_transcripts(fleet, seed, 1, kReplayTranscripts, transcripts)) {
    return 1;
  }

  const std::vector<GroupMember> group = replay_group(transcripts);
  // Each lane makes one untimed warm-up pass first (its allocator arena
  // starts cold); "warm" is printed once every lane finished it.
  Spans off(false);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> warmed{0};
  std::mutex mu;
  std::vector<Batch> batches;
  std::vector<std::string> errors;
  std::vector<std::thread> pool;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    pool.emplace_back([&] {
      for (bool timed = false; !stop.load(); timed = true) {
        Batch batch;
        batch.start_ns = now_ns();
        GroupResult r = run_group(group, off);
        batch.end_ns = now_ns();
        batch.attempted = r.attempted;
        batch.ok = r.ok;
        batch.latencies_ns = std::move(r.finish_ns);
        std::lock_guard<std::mutex> lock(mu);
        if (timed) batches.push_back(std::move(batch));
        else warmed.fetch_add(1);
        for (std::string& e : r.errors) {
          if (errors.size() < 8) errors.push_back(std::move(e));
        }
      }
    });
  }
  std::thread stdin_watch([&] { wait_stdin_eof(stop); });
  while (warmed.load() < kLanes && !stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // run.py rotates the lanes, the first kLanes threads started, over the
  // vCPUs during its window.
  std::printf("warm %llu lanes %zu\n",
              static_cast<unsigned long long>(now_ns()), kLanes);
  std::fflush(stdout);
  stdin_watch.join();
  for (std::thread& t : pool) t.join();
  print_batches(batches, errors);
  return 0;
}

}  // namespace perfbench
