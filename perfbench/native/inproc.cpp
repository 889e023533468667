#include "inproc.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>

#include "net/attest_server.hpp"

namespace perfbench {

namespace net = sacha::net;
namespace core = sacha::core;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kModelBuild: return "bitstream.model_build";
    case Layer::kVerifierFor: return "provision.verifier_for";
    case Layer::kProverBoot: return "prover.boot";
    case Layer::kProverHandle: return "prover.handle";
    case Layer::kCmdgen: return "session.cmdgen";
    case Layer::kWireEncode: return "wire.encode";
    case Layer::kWireDecode: return "wire.decode";
    case Layer::kAbsorb: return "verify.absorb";
    case Layer::kFinish: return "verify.finish";
    case Layer::kCount: break;
  }
  return "?";
}

Spans::Scope::Scope(Spans& spans, Layer layer, std::size_t session)
    : spans_(spans), layer_(layer), session_(session) {
  if (spans_.enabled_) start_ = now_ns();
}

Spans::Scope::~Scope() {
  if (!spans_.enabled_) return;
  const std::uint64_t end = now_ns();
  if (spans_.rows_.size() <= session_) spans_.rows_.resize(session_ + 1);
  Cell& cell = spans_.rows_[session_][static_cast<std::size_t>(layer_)];
  cell.ns += end - start_;
  ++cell.calls;
}

std::uint64_t Spans::total_ns(Layer layer) const {
  std::uint64_t sum = 0;
  for (const Row& row : rows_) sum += row[static_cast<std::size_t>(layer)].ns;
  return sum;
}

std::uint64_t Spans::count(Layer layer) const {
  std::uint64_t sum = 0;
  for (const Row& row : rows_) {
    sum += row[static_cast<std::size_t>(layer)].calls;
  }
  return sum;
}

bool Spans::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"sessions\": [");
  for (std::size_t id = 0; id < rows_.size(); ++id) {
    std::fprintf(out, "%s\n{\"id\": %zu", id > 0 ? "," : "", id);
    for (std::size_t l = 0; l < rows_[id].size(); ++l) {
      if (rows_[id][l].calls == 0) continue;
      std::fprintf(out, ", \"%s\": [%llu, %llu]",
                   layer_name(static_cast<Layer>(l)),
                   static_cast<unsigned long long>(rows_[id][l].ns),
                   static_cast<unsigned long long>(rows_[id][l].calls));
    }
    std::fprintf(out, "}");
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

namespace {

/// Mirrors attestd's RESPONSE payload parse: u8 has_response + optional
/// Response::encode().
std::optional<std::optional<core::Response>> parse_response(
    const sacha::Bytes& payload) {
  if (payload.empty()) return std::nullopt;
  if (payload[0] == 0) {
    if (payload.size() != 1) return std::nullopt;
    return std::optional<core::Response>(std::nullopt);
  }
  auto decoded = core::Response::decode(
      sacha::ByteSpan(payload.data() + 1, payload.size() - 1));
  if (!decoded.ok()) return std::nullopt;
  return std::optional<core::Response>(std::move(decoded).take());
}

struct Live {
  const GroupMember* spec = nullptr;
  std::optional<core::SachaVerifier> verifier;
  std::optional<core::VerifierSession> session;
  std::optional<net::ProverAgent> agent;
  net::FrameDecoder decoder;
  std::size_t next_frame = 0;  // replay cursor
  bool broken = false;
};

}  // namespace

GroupResult run_group(const std::vector<GroupMember>& members, Spans& spans) {
  const net::AttestServerOptions defaults;
  const std::size_t window = defaults.command_window;
  const std::size_t batch_width =
      std::clamp<std::size_t>(defaults.verify_batch_width, 1, 8);
  GroupResult result;
  const std::uint64_t start = now_ns();
  std::deque<Live> live(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    Live& m = live[i];
    m.spec = &members[i];
    const std::size_t id = m.spec->span_id;
    {
      Spans::Scope s(spans, Layer::kVerifierFor, id);
      m.verifier.emplace(net::verifier_for(m.spec->hello));
    }
    {
      Spans::Scope s(spans, Layer::kCmdgen, id);
      m.session.emplace(*m.verifier);
    }
    if (m.spec->replay == nullptr) {
      Spans::Scope s(spans, Layer::kProverBoot, id);
      m.agent.emplace(m.spec->hello, m.spec->tampered
                                         ? net::standard_tamper()
                                         : std::function<void(
                                               sacha::core::SachaProver&)>());
    }
    if (m.spec->capture != nullptr) {
      m.spec->capture->hello = m.spec->hello;
      m.spec->capture->tampered = m.spec->tampered;
    }
  }

  sacha::crypto::CmacBatch batch(batch_width);
  bool pending = true;
  while (pending) {
    pending = false;
    for (Live& m : live) {
      if (m.broken || m.session->all_issued()) continue;
      const std::size_t id = m.spec->span_id;
      m.session->set_absorb_sink(&batch);
      std::vector<sacha::Bytes> wires;
      while (wires.size() < window) {
        std::optional<sacha::Bytes> command;
        {
          Spans::Scope s(spans, Layer::kCmdgen, id);
          command = m.session->next_command_wire();
        }
        if (!command.has_value()) break;
        sacha::Bytes wire;
        {
          Spans::Scope s(spans, Layer::kWireEncode, id);
          wire = net::encode_frame(
              net::Frame{net::FrameKind::kCommand, std::move(*command)});
        }
        wires.push_back(std::move(wire));
      }
      if (m.spec->replay == nullptr) {
        // Live prover: answer each command, frame the answer, feed it.
        for (const sacha::Bytes& wire : wires) {
          const sacha::ByteSpan payload(wire.data() + net::kFrameHeaderBytes,
                                      wire.size() - net::kFrameHeaderBytes);
          sacha::Bytes response;
          {
            Spans::Scope s(spans, Layer::kProverHandle, id);
            response = m.agent->handle_command(payload);
          }
          sacha::Bytes frame;
          {
            Spans::Scope s(spans, Layer::kWireEncode, id);
            frame = net::encode_frame(
                net::Frame{net::FrameKind::kResponse, std::move(response)});
          }
          if (m.spec->capture != nullptr) {
            Transcript& t = *m.spec->capture;
            t.frames.insert(t.frames.end(), frame.begin(), frame.end());
            t.frame_end.push_back(t.frames.size());
          }
          Spans::Scope s(spans, Layer::kWireDecode, id);
          m.decoder.feed(sacha::ByteSpan(frame.data(), frame.size()));
        }
      } else {
        // Replay: the window's responses arrive as one socket read.
        const Transcript& t = *m.spec->replay;
        const std::size_t last = m.next_frame + wires.size();
        if (last > t.frame_end.size()) {
          m.broken = true;
          result.errors.push_back("transcript shorter than the schedule");
          continue;
        }
        const std::size_t begin =
            m.next_frame == 0 ? 0 : t.frame_end[m.next_frame - 1];
        Spans::Scope s(spans, Layer::kWireDecode, id);
        m.decoder.feed(sacha::ByteSpan(t.frames.data() + begin,
                                       t.frame_end[last - 1] - begin));
      }
      m.next_frame += wires.size();
      for (std::size_t r = 0; r < wires.size(); ++r) {
        std::optional<std::optional<core::Response>> response;
        {
          Spans::Scope s(spans, Layer::kWireDecode, id);
          auto frame = m.decoder.next();
          if (frame.ok() && frame.value().has_value() &&
              frame.value()->kind == net::FrameKind::kResponse) {
            response = parse_response(frame.value()->payload);
          }
        }
        if (!response.has_value()) {
          m.broken = true;
          result.errors.push_back("undecodable response frame");
          break;
        }
        Spans::Scope s(spans, Layer::kAbsorb, id);
        m.session->on_response(std::move(*response));
      }
      if (!m.session->all_issued()) pending = true;
    }
    {
      // The flush serves every member of the round; charge it to the
      // group's first session (per-att totals are what run.py reads).
      Spans::Scope s(spans, Layer::kAbsorb, live.front().spec->span_id);
      batch.flush();
    }
    for (Live& m : live) m.session->set_absorb_sink(nullptr);
  }

  for (Live& m : live) {
    ++result.attempted;
    result.commands += m.session->command_count();
    if (m.broken) continue;
    core::VerifierSession::Report report;
    {
      Spans::Scope s(spans, Layer::kFinish, m.spec->span_id);
      report = m.session->finish();
    }
    const std::optional<sacha::crypto::Mac> prover_mac =
        m.spec->replay != nullptr ? m.spec->replay->prover_mac
                                  : m.agent->last_mac();
    if (m.spec->capture != nullptr) m.spec->capture->prover_mac = prover_mac;
    if (verdict_as_expected(m.spec->tampered, report.verdict.ok(),
                            report.expected_mac, prover_mac)) {
      ++result.ok;
      result.finish_ns.push_back(now_ns() - start);
    } else {
      result.errors.push_back(
          "member " + std::to_string(m.spec->hello.member_index) +
          (m.spec->tampered ? " (tampered)" : " (honest)") +
          ": attested=" + std::to_string(report.verdict.ok()) + " " +
          report.verdict.detail);
    }
  }
  return result;
}

bool capture_transcripts(const net::FleetSpec& fleet, std::uint64_t seed,
                         std::size_t first, std::size_t last,
                         std::vector<Transcript>& transcripts) {
  transcripts.resize(kReplayTranscripts);
  std::vector<GroupMember> group;
  for (std::size_t k = first; k < last; ++k) {
    group.push_back(GroupMember{k, net::member_hello(fleet, k),
                                k == seed % kReplayTranscripts, nullptr,
                                &transcripts[k]});
  }
  Spans off(false);
  const GroupResult r = run_group(group, off);
  for (const std::string& e : r.errors) std::fprintf(stderr, "%s\n", e.c_str());
  return r.ok == r.attempted;
}

std::vector<GroupMember> replay_group(
    const std::vector<Transcript>& transcripts) {
  std::vector<GroupMember> group;
  for (std::size_t k = 0; k < transcripts.size(); ++k) {
    group.push_back(GroupMember{k, transcripts[k].hello,
                                transcripts[k].tampered, &transcripts[k],
                                nullptr});
  }
  return group;
}

}  // namespace perfbench
