// Minimal framing for protocol messages: length-prefixed fields with bounds
// checking. Every TRIP/Votegral message (tickets, receipts, ballots, ledger
// entries) serializes through these so that byte layouts are explicit and the
// QR-code payload sizes used by the peripheral model are realistic.
#ifndef SRC_COMMON_SERDE_H_
#define SRC_COMMON_SERDE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/outcome.h"
#include "src/common/status.h"

namespace votegral {

// Appends primitive values to an owned buffer. All integers little-endian.
class ByteWriter {
 public:
  ByteWriter() = default;

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);

  // Raw bytes without a length prefix (for fixed-size fields like 32-byte
  // group elements whose size is part of the schema).
  void Fixed(std::span<const uint8_t> data);

  // Length-prefixed (u32) variable-size field.
  void Var(std::span<const uint8_t> data);

  // Length-prefixed UTF-8 string.
  void Str(std::string_view s);

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

// Reads a message back out of bytes that crossed a trust boundary. It never
// throws: the first failure (a truncation, a non-canonical field, an
// out-of-range value, trailing bytes) is recorded once as a kCorrupted
// Status naming the message and the byte offset, and every later read does
// nothing (integers read 0, views come back empty). A decoder therefore
// reads its fields straight through and ends with `return r.Finish(value);`
// (docs/TRANSCRIPTS.md §Conventions, "Parsing outside bytes").
class ByteReader {
 public:
  // `message` names the decoder in failure reasons, e.g. "ballot". Both
  // `data` and `message` must outlive the reader.
  ByteReader(std::span<const uint8_t> data, std::string_view message)
      : data_(data), message_(message) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();

  // Copies the next out.size() bytes into `out` (a fixed-width field).
  void Fixed(std::span<uint8_t> out);

  // A u32-length-prefixed field, as a view into the input.
  std::span<const uint8_t> Var();

  // A u32-length-prefixed string.
  std::string Str();

  // Decodes the next `n` bytes into `*out` with `decode`, which returns a
  // std::optional (a point, a scalar: a rejection is a non-canonical field)
  // or an Outcome (a nested message: its code and reason carry through).
  template <typename T, typename DecodeFn>
  void Decode(T* out, size_t n, DecodeFn&& decode) {
    Accept(out, View(n), decode);
  }

  // Decode() for a u32-length-prefixed field.
  template <typename T, typename DecodeFn>
  void DecodeVar(T* out, DecodeFn&& decode) {
    Accept(out, Var(), decode);
  }

  // Decodes one self-delimiting record with `decode(bytes, &offset)`, an
  // Outcome codec that advances `offset` past the record (the ledger's
  // entry-frame codec).
  template <typename T, typename DecodeFn>
  void DecodeAt(T* out, DecodeFn&& decode) {
    if (!ok()) {
      return;
    }
    field_ = pos_;
    size_t offset = pos_;
    auto parsed = decode(data_, &offset);
    if (!parsed.ok()) {
      FailNested(parsed.status);
      return;
    }
    pos_ = offset;
    *out = std::move(*parsed);
  }

  // Fails with `why` at the start of the last field read unless `condition`
  // holds; returns ok().
  bool Check(bool condition, std::string_view why,
             StatusCode code = StatusCode::kCorrupted) {
    if (!condition) {
      Fail(why, code);
    }
    return ok();
  }

  // Records `why` at the start of the last field read, unless an earlier
  // failure is already recorded.
  void Fail(std::string_view why, StatusCode code = StatusCode::kCorrupted);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return data_.size() - pos_; }

  // Fails on trailing bytes, then returns `value` or the first failure.
  template <typename T>
  Outcome<T> Finish(T value) {
    if (ok() && pos_ != data_.size()) {
      field_ = pos_;
      Fail("trailing bytes");
    }
    if (!ok()) {
      return Outcome<T>::Fail(status_);
    }
    return Outcome<T>::Ok(std::move(value));
  }

 private:
  // The next `n` bytes, as a view into the input (empty on failure).
  std::span<const uint8_t> View(size_t n);
  void FailNested(const Status& nested);

  template <typename T, typename DecodeFn>
  void Accept(T* out, std::span<const uint8_t> field, DecodeFn& decode) {
    if (!ok()) {
      return;
    }
    auto parsed = decode(field);
    if constexpr (requires(decltype(parsed) p) { p.status; }) {
      if (!parsed.ok()) {
        FailNested(parsed.status);
        return;
      }
    } else if (!parsed.has_value()) {
      Fail("non-canonical field");
      return;
    }
    *out = std::move(*parsed);
  }

  std::span<const uint8_t> data_;
  std::string_view message_;
  size_t pos_ = 0;
  size_t field_ = 0;  // where the last field read began
  Status status_ = Status::Ok();
};

}  // namespace votegral

#endif  // SRC_COMMON_SERDE_H_
