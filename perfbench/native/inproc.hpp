// In-process attestation pipeline shared by the replay workload and the
// traced layer run: the server's per-session calls (verifier_for,
// VerifierSession, wire framing, CmacBatch absorb, finish) driven without
// a socket, against a live ProverAgent or a captured response transcript.
//
// Spans sit in this file, around each call into a layer — never inside
// the program — and aggregate per (session, layer) in memory.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/session.hpp"
#include "net/attest_client.hpp"

namespace perfbench {

enum class Layer : std::size_t {
  kModelBuild,    // cold net::verifier_for (golden-model build)
  kVerifierFor,   // warm net::verifier_for
  kProverBoot,    // net::ProverAgent constructor
  kProverHandle,  // ProverAgent::handle_command
  kCmdgen,        // VerifierSession construction + next_command_wire
  kWireEncode,    // net::encode_frame (COMMAND and RESPONSE)
  kWireDecode,    // FrameDecoder::feed/next + Response::decode
  kAbsorb,        // VerifierSession::on_response + CmacBatch::flush
  kFinish,        // VerifierSession::finish
  kCount,
};

const char* layer_name(Layer layer);

/// Leaf-span recorder. Disabled, a scope reads no clock.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Spans& spans, Layer layer, std::size_t session);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    Layer layer_;
    std::size_t session_;
    std::uint64_t start_ = 0;
  };

  bool enabled() const { return enabled_; }
  std::uint64_t total_ns(Layer layer) const;
  std::uint64_t count(Layer layer) const;
  /// Writes {"sessions": [{"id": i, "<layer>": [ns, calls], ...}, ...]}.
  bool write_json(const std::string& path) const;

 private:
  struct Cell {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
  };
  using Row = std::array<Cell, static_cast<std::size_t>(Layer::kCount)>;
  bool enabled_;
  std::vector<Row> rows_;  // by session id
};

/// A captured session: every RESPONSE frame the prover sent, as wire bytes
/// back to back, and the prover's H_Prv.
struct Transcript {
  sacha::net::HelloMsg hello;
  bool tampered = false;
  sacha::Bytes frames;
  std::vector<std::size_t> frame_end;  // end offset of response i
  std::optional<sacha::crypto::Mac> prover_mac;
};

struct GroupResult {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t commands = 0;
  std::vector<std::uint64_t> finish_ns;  // per ok session, from group start
  std::vector<std::string> errors;
};

/// One member of a group: live (prover answers) or replayed (transcript).
struct GroupMember {
  std::size_t span_id = 0;
  sacha::net::HelloMsg hello;
  bool tampered = false;
  const Transcript* replay = nullptr;  // null = live ProverAgent
  Transcript* capture = nullptr;       // live only: record the responses
};

/// Runs the members' sessions interleaved the way attestd's verify lane
/// does with the default AttestServerOptions: command_window commands per
/// session per round, one CmacBatch flush of verify_batch_width lanes per
/// round. Checks every verdict and MAC.
GroupResult run_group(const std::vector<GroupMember>& members, Spans& spans);

/// The v6_replay transcript set: members [0, kReplayTranscripts) of the
/// workload fleet, the one at seed % kReplayTranscripts tampered.
constexpr std::size_t kReplayTranscripts = 4;

/// Captures transcripts[first, last) of the replay set from live
/// in-process sessions, without spans. False, with the errors on stderr,
/// if a verdict or MAC was not as expected.
bool capture_transcripts(const sacha::net::FleetSpec& fleet,
                         std::uint64_t seed, std::size_t first,
                         std::size_t last,
                         std::vector<Transcript>& transcripts);

/// The replay set as one group of replayed members, span ids 0..n-1.
std::vector<GroupMember> replay_group(
    const std::vector<Transcript>& transcripts);

}  // namespace perfbench
