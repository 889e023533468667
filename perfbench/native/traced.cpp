// The traced in-process run: the workload's sessions driven once untimed
// as a warm-up, once without spans and once with a span around every call
// into a layer. The sessions are live (prover answers, no socket), or with
// --replay the v6_replay workload's own path: the replay set's captured
// transcripts replayed as one group, again and again. Prints per-layer
// totals, the traced and untraced wall times (their gap is the tracing
// overhead) and writes the per-session spans to --spans-out.
#include <algorithm>
#include <cstdio>
#include <string>

#include "inproc.hpp"

namespace perfbench {

namespace {

struct Pass {
  std::uint64_t wall_ns = 0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t commands = 0;
  std::vector<std::string> errors;
};

}  // namespace

int traced_main(const Args& args) {
  const auto scale = parse_device(args.str("device", "small"));
  if (!scale.has_value()) {
    std::fprintf(stderr, "traced: bad --device\n");
    return 2;
  }
  const std::uint64_t seed = args.u64("seed", 1);
  const bool replay = args.has("replay");
  const std::size_t sessions = args.u64("sessions", 64);
  const std::size_t group_size =
      replay ? kReplayTranscripts
             : std::max<std::uint64_t>(1, args.u64("group", 4));
  const std::uint64_t tamper_period = args.u64("tamper-period", 16);
  const sacha::net::FleetSpec fleet = fleet_for(seed, *scale);

  Spans cold(true);
  std::optional<sacha::core::SachaVerifier> keeper;
  {
    Spans::Scope s(cold, Layer::kModelBuild, 0);
    keeper.emplace(sacha::net::verifier_for(sacha::net::member_hello(fleet, 0)));
  }
  std::vector<Transcript> transcripts;
  if (replay && !capture_transcripts(fleet, seed, 0, kReplayTranscripts,
                                     transcripts)) {
    return 1;
  }

  // The group that starts at session `first` of a pass of `count`.
  const auto group_at = [&](std::size_t first, std::size_t count) {
    if (replay) return replay_group(transcripts);
    std::vector<GroupMember> group;
    for (std::size_t i = first; i < std::min(count, first + group_size); ++i) {
      group.push_back(GroupMember{i, sacha::net::member_hello(fleet, i),
                                  tampered_member(seed, i, tamper_period),
                                  nullptr, nullptr});
    }
    return group;
  };
  const auto run_pass = [&](Spans& spans, std::size_t count) {
    Pass pass;
    const std::uint64_t start = now_ns();
    for (std::size_t first = 0; first < count; first += group_size) {
      GroupResult r = run_group(group_at(first, count), spans);
      pass.attempted += r.attempted;
      pass.ok += r.ok;
      pass.commands += r.commands;
      for (std::string& e : r.errors) pass.errors.push_back(std::move(e));
    }
    pass.wall_ns = now_ns() - start;
    return pass;
  };
  Spans off(false);
  Spans traced(true);
  // An untimed pass first, so neither timed pass pays for cold caches.
  const Pass warm = run_pass(off, args.u64("warmup", group_size));
  const Pass plain = run_pass(off, sessions);
  const Pass spanned = run_pass(traced, sessions);
  // The captures are sessions of this run too, each checked as it ran.
  const std::size_t captured = transcripts.size();

  std::string out = "{\"sessions\": " + std::to_string(sessions) +
                    ", \"attempted\": " +
                    std::to_string(captured + warm.attempted + plain.attempted +
                                   spanned.attempted) +
                    ", \"ok\": " +
                    std::to_string(captured + warm.ok + plain.ok + spanned.ok) +
                    ", \"commands\": " + std::to_string(spanned.commands) +
                    ", \"untraced_wall_ns\": " + std::to_string(plain.wall_ns) +
                    ", \"traced_wall_ns\": " + std::to_string(spanned.wall_ns) +
                    ", \"model_build_ns\": " +
                    std::to_string(cold.total_ns(Layer::kModelBuild)) +
                    ", \"layers\": {";
  for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
    const Layer layer = static_cast<Layer>(l);
    if (layer == Layer::kModelBuild) continue;
    if (out.back() != '{') out += ", ";
    out += '"';
    out += layer_name(layer);
    out += "\": [";
    out += std::to_string(traced.total_ns(layer));
    out += ", ";
    out += std::to_string(traced.count(layer));
    out += ']';
  }
  out += "}}\n";
  for (const Pass* pass : {&warm, &plain, &spanned}) {
    for (const std::string& e : pass->errors) {
      std::fprintf(stderr, "%s\n", e.c_str());
    }
  }
  const std::string spans_out = args.str("spans-out", "");
  if (!spans_out.empty() && !traced.write_json(spans_out)) {
    std::fprintf(stderr, "traced: cannot write %s\n", spans_out.c_str());
    return 1;
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

}  // namespace perfbench
