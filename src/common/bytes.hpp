// Byte-level message codec.
//
// Every protocol message in the system (Totem tokens, regular messages, CCS
// control messages, checkpoints) is serialized through these two helpers so
// that what crosses the simulated wire is a flat byte buffer — exactly what
// would cross a real network.  Encoding is little-endian fixed-width.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cts {

using Bytes = std::vector<std::uint8_t>;

/// An immutable, refcounted view of a byte buffer.
///
/// The zero-copy payload type of the delivery path: a broadcast allocates
/// its payload once and every receiver's in-flight packet shares it; a
/// Totem multicast payload is an aliasing slice() of the sealed packet it
/// arrived in.  Copying a SharedBytes bumps a refcount; the underlying
/// buffer is freed when the last view drops.  The owner is type-erased:
/// a wrapped Bytes, or one block built in place by BytesWriter::fixed().
/// The refcount is atomic: link frames cross island threads.
///
/// Ownership rules (see doc/PERFORMANCE.md):
///   * the wrapped buffer is immutable for the lifetime of every view —
///     mutation paths (e.g. corruption injection) must materialize a fresh
///     buffer (copy-on-write) rather than write through a view;
///   * slice() aliases the parent buffer: it keeps the WHOLE parent alive,
///     which is the right trade for packet payloads (packet and payload
///     die together) but wrong for long-lived small slices of huge buffers
///     — materialize with to_bytes() in that case.
class SharedBytes {
 public:
  SharedBytes() = default;

  /// Wrap a buffer, taking ownership.  Implicit, so APIs migrated from
  /// `const Bytes&` to `SharedBytes` keep accepting Bytes rvalues.  Costs a
  /// control block on top of the vector's own buffer.
  SharedBytes(Bytes b) {  // NOLINT(google-explicit-constructor)
    auto owner = std::make_shared<const Bytes>(std::move(b));
    data_ = owner->data();
    size_ = owner->size();
    owner_ = std::move(owner);
  }

  /// Adopt the first `size` bytes of a refcounted block — the single
  /// allocation a fixed-size BytesWriter writes in place, holding both the
  /// refcount and the bytes.
  SharedBytes(std::shared_ptr<const std::uint8_t[]> block, std::size_t size)
      : owner_(std::move(block)),
        data_(static_cast<const std::uint8_t*>(owner_.get())),
        size_(size) {}

  /// Materialize an owning SharedBytes from any contiguous byte range.
  static SharedBytes copy_of(std::span<const std::uint8_t> s) {
    return SharedBytes(Bytes(s.begin(), s.end()));
  }

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] std::span<const std::uint8_t> span() const { return {data_, size_}; }

  const std::uint8_t& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] const std::uint8_t* begin() const { return data_; }
  [[nodiscard]] const std::uint8_t* end() const { return data_ + size_; }

  /// Aliasing sub-view: shares (and keeps alive) the parent buffer.
  /// `offset + len` must be within size().
  [[nodiscard]] SharedBytes slice(std::size_t offset, std::size_t len) const {
    SharedBytes out;
    out.owner_ = owner_;
    out.data_ = data_ + offset;
    out.size_ = len;
    return out;
  }

  /// Deep copy into a plain mutable buffer.
  [[nodiscard]] Bytes to_bytes() const { return Bytes(begin(), end()); }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::shared_ptr<const void> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Thrown by BytesReader when a read runs past the end of the buffer or a
/// length prefix is inconsistent — i.e. the message is malformed.  Every
/// out-of-bounds access fails through this explicit error path; there is
/// deliberately no assert-based (NDEBUG-vanishing) variant, because a
/// malformed packet must be rejected identically in Debug and Release.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// The repository's single audited type-punning site: fixed-width
/// little-endian loads/stores for envelope fields that are written after
/// the fact (e.g. a checksum patched over a serialized packet).  All other
/// code must go through BytesWriter/BytesReader or these helpers — raw
/// memcpy/reinterpret_cast elsewhere is a detlint error.
///
/// The caller is responsible for bounds: `p` must point at sizeof(value)
/// readable (resp. writable) bytes.
///
/// Values are copied in host byte order, so the wire format is
/// little-endian because every supported host is; a big-endian build stops
/// here instead of emitting a different format.
static_assert(std::endian::native == std::endian::little,
              "the wire format is little-endian: add byte swaps for this host");

inline std::uint32_t load_u32le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Any fixed-width integer: the BytesWriter's append path.
template <typename T>
inline void store_le(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(v));
}

inline void store_u32le(std::uint8_t* p, std::uint32_t v) { store_le(p, v); }

/// 8-byte flavor for word-at-a-time scans (the oracle's payload
/// fingerprint).  `p` must point at 8 readable bytes.
inline std::uint64_t load_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// FNV-style hash over 32-bit words: the Totem packet-envelope checksum.
/// The state is 32 bits, seeded with the FNV offset basis.  Each
/// little-endian 32-bit word `w` of `data` steps it as
/// `h = rotl((h ^ w) * 16777619, 15)` (the FNV-1a prime, then a rotation
/// that feeds high-order bits back to the low ones), and the 0-3 trailing
/// bytes take the same step one byte at a time.  XOR with the input, the
/// odd multiply and the rotation are each a bijection of the state, so two
/// inputs of equal length that differ within one word — in particular by
/// any single flipped bit — always hash differently.
inline std::uint32_t fnv32_words(std::span<const std::uint8_t> data) {
  const auto step = [](std::uint32_t h, std::uint32_t w) {
    return std::rotl((h ^ w) * 16777619u, 15);
  };
  std::uint32_t h = 2166136261u;
  std::size_t i = 0;
  for (; data.size() - i >= 4; i += 4) h = step(h, load_u32le(data.data() + i));
  for (; i < data.size(); ++i) h = step(h, data[i]);
  return h;
}

/// FNV-1a over a byte range: links checkpoint-chain headers (see
/// src/replication).  `seed` chains the hash over multiple inputs.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> data,
                             std::uint64_t seed = 14695981039346656037ull) {
  std::uint64_t h = seed;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// Appends fixed-width little-endian values through a write cursor.
///
/// Two backing stores, one writer:
///   * default-constructed, it grows a Bytes geometrically; data() and
///     take() hand out that vector without a copy;
///   * `BytesWriter::fixed(n)` writes straight into ONE refcounted block of
///     exactly `n` bytes (refcount and bytes share the allocation), which
///     take_shared() hands over as a SharedBytes — for encoders that know
///     their exact size up front.  A write past `n` throws
///     std::length_error, and take_shared() refuses a block that is not
///     completely written, so no unwritten byte ever reaches the wire.
///
/// A field write is a bounds compare and a store at the cursor; only the
/// growing store's rare reallocation is out of line.
class BytesWriter {
 public:
  BytesWriter() = default;

  /// A writer over one uninitialized refcounted block of exactly `size`
  /// bytes.  Every byte must be written before take_shared().
  static BytesWriter fixed(std::size_t size) {
    BytesWriter w;
    w.block_ = std::make_shared_for_overwrite<std::uint8_t[]>(size);
    w.begin_ = w.cur_ = w.block_.get();
    w.end_ = w.begin_ + size;
    return w;
  }

  /// Moving hands the cursor over; the source is left empty.
  BytesWriter(BytesWriter&& o) noexcept
      : buf_(std::move(o.buf_)),
        block_(std::move(o.block_)),
        begin_(std::exchange(o.begin_, nullptr)),
        cur_(std::exchange(o.cur_, nullptr)),
        end_(std::exchange(o.end_, nullptr)) {}

  BytesWriter(const BytesWriter&) = delete;
  BytesWriter& operator=(const BytesWriter&) = delete;

  void u8(std::uint8_t v) { *extend(1) = v; }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) raw bytes.
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }

  /// Unprefixed raw append — the scatter-gather path.  A frame encoder
  /// gathers several source buffers (envelope, per-message headers,
  /// payload slices) into one wire buffer without an intermediate
  /// concatenation buffer per source.
  void raw(std::span<const std::uint8_t> data) {
    std::copy(data.begin(), data.end(), extend(data.size()));
  }

  /// Make room for `additional` bytes beyond what is already written, in
  /// one allocation.  Scatter-gather encoders sum their source sizes up
  /// front so the whole gather lands in a single allocation.  (A fixed
  /// block cannot grow; a write past its end throws.)
  void reserve(std::size_t additional) {
    if (!block_ && room() < additional) grow(additional, /*exact=*/true);
  }

  /// Patch a u32 at an absolute offset inside the already-written buffer —
  /// for envelope fields whose value is only known once the body is in
  /// place (a checksum over the bytes that follow it).
  void patch_u32(std::size_t offset, std::uint32_t v) {
    assert(offset + sizeof(v) <= size());
    store_u32le(begin_ + offset, v);
  }

  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    std::copy(s.begin(), s.end(), extend(s.size()));
  }

  /// The bytes written so far, in either store.
  [[nodiscard]] std::span<const std::uint8_t> written() const { return {begin_, size()}; }

  /// The growing store's buffer, trimmed to what was written.  Not
  /// available on a fixed block (use written()).
  [[nodiscard]] const Bytes& data() & {
    trim();
    return buf_;
  }
  [[nodiscard]] Bytes take() && {
    trim();
    begin_ = cur_ = end_ = nullptr;
    return std::move(buf_);
  }

  /// Hand a fixed block over as a SharedBytes, as is.  It must be
  /// completely written.
  [[nodiscard]] SharedBytes take_shared() && {
    if (!block_ || cur_ != end_) {
      throw std::logic_error("BytesWriter: take_shared needs a completely written fixed block");
    }
    const std::size_t n = size();
    begin_ = cur_ = end_ = nullptr;
    return SharedBytes(std::move(block_), n);
  }

  [[nodiscard]] std::size_t size() const { return static_cast<std::size_t>(cur_ - begin_); }

 private:
  [[nodiscard]] std::size_t room() const { return static_cast<std::size_t>(end_ - cur_); }

  template <typename T>
  void put(T v) {
    store_le(extend(sizeof(T)), v);
  }

  /// Advance the cursor by `n` bytes for the caller to fill; returns where
  /// they start.
  std::uint8_t* extend(std::size_t n) {
    if (room() < n) [[unlikely]] grow(n);
    std::uint8_t* at = cur_;
    cur_ += n;
    return at;
  }

  /// The slow path, out of line: reallocate the growing store to hold `n`
  /// more bytes (doubling, from at least kMinCapacity, or exactly for
  /// reserve()), then expose its whole capacity to the cursor.
  [[gnu::noinline]] void grow(std::size_t n, bool exact = false) {
    if (block_) throw std::length_error("BytesWriter: write past the end of a fixed block");
    const std::size_t used = size();
    buf_.resize(used);
    buf_.reserve(exact ? used + n : std::max({used + n, 2 * used, kMinCapacity}));
    buf_.resize(buf_.capacity());
    begin_ = buf_.data();
    cur_ = begin_ + used;
    end_ = begin_ + buf_.size();
  }

  /// Shrink the growing store to the written bytes (no reallocation); the
  /// next write re-exposes the spare capacity.
  void trim() {
    if (block_) throw std::logic_error("BytesWriter: a fixed block has no Bytes to hand out");
    buf_.resize(size());
    end_ = cur_;
  }

  /// First allocation of the growing store: a typical message (a GCS
  /// header and a small payload) fits without a reallocation.
  static constexpr std::size_t kMinCapacity = 64;

  Bytes buf_;
  std::shared_ptr<std::uint8_t[]> block_;
  std::uint8_t* begin_ = nullptr;
  std::uint8_t* cur_ = nullptr;
  std::uint8_t* end_ = nullptr;
};

/// Reads fixed-width little-endian values from a byte buffer; throws
/// CodecError on truncation.
class BytesReader {
 public:
  explicit BytesReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(get<std::uint64_t>()); }
  bool boolean() { return u8() != 0; }

  Bytes bytes() {
    const auto n = u32();
    require(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::string str() {
    const auto n = u32();
    require(n);
    std::string out(reinterpret_cast<const char*>(data_.data()) + pos_, n);
    pos_ += n;
    return out;
  }

  /// Skip `n` bytes (e.g. an envelope already validated by the caller);
  /// throws CodecError if fewer than `n` remain.
  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  /// Number of unread bytes remaining.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

  /// Current read offset from the start of the buffer this reader was
  /// constructed over.  Lets zero-copy consumers convert "where the reader
  /// is" into a SharedBytes::slice() of the enclosing packet.
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  void require(std::size_t n) const {
    // Compare against the remaining count rather than `pos_ + n`: a hostile
    // length prefix near SIZE_MAX must not wrap the addition and sneak past
    // the bound (pos_ <= size() is an invariant, so the subtraction is safe).
    if (n > data_.size() - pos_) [[unlikely]] truncated(n);
  }

  /// The cold half of require(), kept out of line so every field read
  /// inlines to a compare and a load.
  [[noreturn, gnu::noinline]] void truncated(std::size_t n) const {
    throw CodecError("truncated message: need " + std::to_string(n) + " bytes, have " +
                     std::to_string(data_.size() - pos_));
  }

  template <typename T>
  T get() {
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cts
