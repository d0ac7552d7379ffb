#include "src/common/serde.h"

#include <algorithm>

namespace votegral {

void ByteWriter::U16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::U32(uint32_t v) {
  uint8_t tmp[4];
  StoreLe32(tmp, v);
  buf_.insert(buf_.end(), tmp, tmp + 4);
}

void ByteWriter::U64(uint64_t v) {
  uint8_t tmp[8];
  StoreLe64(tmp, v);
  buf_.insert(buf_.end(), tmp, tmp + 8);
}

void ByteWriter::Fixed(std::span<const uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::Var(std::span<const uint8_t> data) {
  Require(data.size() <= UINT32_MAX, "ByteWriter::Var: field too large");
  U32(static_cast<uint32_t>(data.size()));
  Fixed(data);
}

void ByteWriter::Str(std::string_view s) { Var(AsBytes(s)); }

std::span<const uint8_t> ByteReader::View(size_t n) {
  if (!ok()) {
    return {};
  }
  field_ = pos_;
  if (n > data_.size() - pos_) {
    Fail("truncated field");
    return {};
  }
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void ByteReader::Fail(std::string_view why, StatusCode code) {
  if (ok()) {
    status_ = Status::Error(code, std::string(message_) + ": " + std::string(why) +
                                      " at offset " + std::to_string(field_));
  }
}

void ByteReader::FailNested(const Status& nested) {
  if (ok()) {
    status_ = Status::Error(nested.code(), std::string(message_) + ": field at offset " +
                                               std::to_string(field_) + ": " +
                                               nested.reason());
  }
}

uint8_t ByteReader::U8() {
  auto s = View(1);
  return s.empty() ? 0 : s[0];
}

uint16_t ByteReader::U16() {
  auto s = View(2);
  return s.empty() ? 0 : static_cast<uint16_t>(s[0] | (s[1] << 8));
}

uint32_t ByteReader::U32() {
  auto s = View(4);
  return s.empty() ? 0 : LoadLe32(s.data());
}

uint64_t ByteReader::U64() {
  auto s = View(8);
  return s.empty() ? 0 : LoadLe64(s.data());
}

void ByteReader::Fixed(std::span<uint8_t> out) {
  auto s = View(out.size());
  std::copy(s.begin(), s.end(), out.begin());
}

std::span<const uint8_t> ByteReader::Var() {
  uint32_t n = U32();
  return View(n);
}

std::string ByteReader::Str() {
  auto s = Var();
  return std::string(s.begin(), s.end());
}

}  // namespace votegral
