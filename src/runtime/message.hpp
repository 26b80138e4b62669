// Messages exchanged by node programs.
//
// In the synchronous port-numbering model a node sends exactly one message
// per port per round.  All algorithms in this library need only a small tag
// plus up to three integer arguments, so Message is a fixed-size value type;
// tag 0 ("silence") is the conventional empty message and is excluded from
// traffic statistics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace eds::runtime {

struct Message {
  std::int32_t tag = 0;
  std::array<std::int32_t, 3> arg{0, 0, 0};

  [[nodiscard]] bool operator==(const Message&) const = default;
  [[nodiscard]] bool is_silence() const noexcept { return tag == 0; }
};

// The engine moves Messages through pooled flat buffers written by
// concurrent shards and read back across the round barrier, and the async
// runtime round-trips them through struct-of-arrays lanes field by field
// (MessageLanes below).  Both are value-exact only for a trivially
// copyable aggregate whose state is exactly its four int32 fields — keep
// Message that way, or the lane round trip stops being faithful.
static_assert(std::is_trivially_copyable_v<Message>,
              "Message must stay trivially copyable: the runtimes store it "
              "in shared flat buffers written from concurrent shards");
static_assert(sizeof(Message) == 4 * sizeof(std::int32_t),
              "Message must stay exactly {tag, arg[3]}: MessageLanes "
              "persists those four fields and nothing else");

/// The empty message.
inline constexpr Message kSilence{};

/// Builds a message from a tag and up to three arguments.
[[nodiscard]] constexpr Message msg(std::int32_t tag, std::int32_t a0 = 0,
                                    std::int32_t a1 = 0,
                                    std::int32_t a2 = 0) noexcept {
  return Message{tag, {a0, a1, a2}};
}

/// Struct-of-arrays message storage: the four Message fields held as
/// parallel flat std::int32_t lanes.  The async runtime's per-round
/// assembly buffers use this layout (slots fill in arrival order, one field
/// set per store) and gather each node's slots back into Message form.
///
/// The synchronous engine deliberately does NOT use four-lane storage for
/// its port-indexed transport: routing messages through the port
/// involution is a random-access permutation, and in a four-lane layout
/// every permuted access touches four cache lines instead of one — ~4x
/// slower measured on dense graphs.  It keeps AoS slots and counts each
/// sender's messages at send time (see ARCHITECTURE.md).
///
/// Programs keep the span<Message> API; lane users gather slots back into
/// Message form before receive().
class MessageLanes {
 public:
  /// Resets to `count` slots, all silence (size + contents reset, capacity
  /// retained — the pooled-workspace discipline).
  void assign_silence(std::size_t count) {
    tag_.assign(count, 0);
    arg0_.assign(count, 0);
    arg1_.assign(count, 0);
    arg2_.assign(count, 0);
  }

  [[nodiscard]] std::size_t size() const noexcept { return tag_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return tag_.capacity();
  }

  /// Writes message `m` into slot q (unchecked): four lane stores.
  void store(std::size_t q, const Message& m) noexcept {
    tag_[q] = m.tag;
    arg0_[q] = m.arg[0];
    arg1_[q] = m.arg[1];
    arg2_[q] = m.arg[2];
  }

  /// Reads slot q back as a Message (unchecked).
  [[nodiscard]] Message load(std::size_t q) const noexcept {
    return Message{tag_[q], {arg0_[q], arg1_[q], arg2_[q]}};
  }

  /// Silences slot q — all four lanes zeroed, so a later load() is
  /// bit-identical to kSilence (programs may inspect a silent message's
  /// arguments).
  void silence(std::size_t q) noexcept {
    tag_[q] = 0;
    arg0_[q] = 0;
    arg1_[q] = 0;
    arg2_[q] = 0;
  }

  /// Transposes slots [offset, offset + count) back into AoS form at `dst`
  /// (unchecked).  Four contiguous streams in, one contiguous stream out —
  /// the autovectorization-friendly interleave the receive stage runs per
  /// node.
  void gather(std::size_t offset, std::size_t count,
              Message* dst) const noexcept {
    const std::int32_t* const t = tag_.data() + offset;
    const std::int32_t* const a0 = arg0_.data() + offset;
    const std::int32_t* const a1 = arg1_.data() + offset;
    const std::int32_t* const a2 = arg2_.data() + offset;
    for (std::size_t i = 0; i < count; ++i) {
      dst[i] = Message{t[i], {a0[i], a1[i], a2[i]}};
    }
  }

  /// Heap footprint of the four lanes, for workspace byte accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return (tag_.capacity() + arg0_.capacity() + arg1_.capacity() +
            arg2_.capacity()) *
           sizeof(std::int32_t);
  }

 private:
  std::vector<std::int32_t> tag_;
  std::vector<std::int32_t> arg0_;
  std::vector<std::int32_t> arg1_;
  std::vector<std::int32_t> arg2_;
};

}  // namespace eds::runtime
