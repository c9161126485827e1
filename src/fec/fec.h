// Visibility-weighted forward error correction (livo::fec, DESIGN.md §12).
//
// XOR interleaved parity over a frame's MTU fragments: P parity packets
// protect F media fragments, parity j covering the fragment subset
// {i : i mod P == j}. The groups partition the fragment range, so each
// parity packet can rebuild exactly one missing fragment of its group —
// the classic "1-D interleaved FEC" (RFC 8260-adjacent) trade: burst
// tolerance grows with P while the overhead stays P/F.
//
// The redundancy ratio is a pure policy function of two deterministic
// signals (ChooseRedundancy): the receiver-path loss estimate from the
// GCC feedback loop, and a utility weight in [0, 1] combining the
// Kalman-predicted visible fraction with the split controller's
// depth-vs-color weight. High-utility streams on lossy paths buy more
// parity; invisible streams decay to the policy floor. The cap bounds the
// worst-case wire overhead so FEC can be budgeted inside the GCC target.
//
// Everything here is arithmetic on sizes and bytes — no clocks, no RNG —
// so the subsystem adds nothing to the determinism surface: parity counts
// and payload sizes are pure functions of (frame size, redundancy).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace livo::fec {

// Policy constants: one design point for every participant and SFU.

// Hard ceiling on the parity/media packet ratio per frame; the transport
// clamps every stream's redundancy to it too. Also the planning overhead
// the allocators price when no live loss estimate is available (see
// PlanningOverhead).
inline constexpr double kRedundancyCap = 0.5;
// Parity packets bought per unit of loss estimate: redundancy ~
// kLossGain * loss * weight(utility). 4.0 means 5% loss at full utility
// asks for ~20% parity.
inline constexpr double kLossGain = 4.0;
// Weight floor for zero-utility streams, so an off-screen stream that
// suddenly rotates into view is not naked while the estimate warms up.
inline constexpr double kUtilityFloor = 0.25;

// The conference-level FEC switch; ConferenceOptions embeds one copy.
struct FecPolicy {
  bool enabled = false;
};

// Redundancy ratio in [0, kRedundancyCap] for a stream with the given
// smoothed loss estimate and utility weight (both clamped to [0, 1]).
double ChooseRedundancy(const FecPolicy& policy, double loss_estimate,
                        double utility);

// Static parity overhead used where no live loss estimate exists (token
// bucket pricing at conference setup): the policy evaluated at the link's
// configured mean loss rate and full utility.
double PlanningOverhead(const FecPolicy& policy, double mean_loss_rate);

// Number of parity packets protecting `media_fragments` fragments at
// ratio `redundancy`: ceil(F * r), clamped to [0, F]. More parity than
// media is pointless for single-recovery XOR groups.
int ParityCount(int media_fragments, double redundancy);

// Payload size of media fragment `i` of a frame of `frame_size` bytes cut
// into `mtu`-byte fragments.
std::size_t FragmentSize(std::size_t frame_size, std::size_t mtu,
                         std::size_t i);

// Wire payload sizes of the `parity_count` parity packets: parity j is as
// large as the largest fragment in its group (shorter members are
// implicitly zero-padded before the XOR).
std::vector<std::size_t> ParityPayloadSizes(std::size_t frame_size,
                                            std::size_t mtu, int parity_count);

// Encodes the parity payloads over `data` (the serialized frame). Returns
// `parity_count` buffers; buffer j is the byte-wise XOR of the group's
// zero-padded fragments.
std::vector<std::vector<std::uint8_t>> EncodeParity(
    const std::vector<std::uint8_t>& data, std::size_t mtu, int parity_count);

// True when parity group j (of `parity_count`) can rebuild a fragment:
// exactly one group member is missing in `have` (size F).
bool CanRecover(const std::vector<bool>& have, int parity_count, int group);

// Index of the single missing fragment of group j, or -1 when the group
// is complete or missing more than one member.
int MissingFragment(const std::vector<bool>& have, int parity_count,
                    int group);

// Rebuilds fragment `missing` by XOR-ing parity group `group`'s payload
// with every present member of the group. `data` supplies the present
// fragments (receiver reassembly buffer); returns the recovered fragment
// bytes, truncated to the fragment's true size.
std::vector<std::uint8_t> RecoverFragment(
    const std::vector<std::uint8_t>& data, std::size_t mtu,
    const std::vector<std::uint8_t>& parity_payload, int parity_count,
    int group, int missing);

}  // namespace livo::fec
