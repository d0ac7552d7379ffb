// Tests for the common utilities: bytes/hex, serde framing, stats, tables,
// timers, status composition.
#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/outcome.h"
#include "src/common/serde.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"

namespace votegral {
namespace {

TEST(Bytes, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(HexEncode(data), "0001abff7f");
  EXPECT_EQ(HexDecode("0001abff7f"), data);
  EXPECT_EQ(HexDecode("0001ABFF7F"), data);  // case-insensitive
  EXPECT_EQ(HexDecode(""), Bytes{});
}

TEST(Bytes, HexDecodeRejectsMalformed) {
  EXPECT_THROW(HexDecode("abc"), ProtocolError);   // odd length
  EXPECT_THROW(HexDecode("zz"), ProtocolError);    // non-hex
  EXPECT_THROW(HexDecode("0g"), ProtocolError);
}

TEST(Bytes, ConstantTimeEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

TEST(Bytes, EndianHelpers) {
  uint8_t buf[8];
  StoreLe64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0xef);
  EXPECT_EQ(buf[7], 0x01);
  EXPECT_EQ(LoadLe64(buf), 0x0123456789abcdefULL);
  StoreBe64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0xef);
  EXPECT_EQ(LoadBe64(buf), 0x0123456789abcdefULL);
  StoreBe32(buf, 0xdeadbeef);
  EXPECT_EQ(LoadBe32(buf), 0xdeadbeef);
  StoreLe32(buf, 0xdeadbeef);
  EXPECT_EQ(LoadLe32(buf), 0xdeadbeef);
}

TEST(Bytes, Concat) {
  Bytes a = {1, 2};
  Bytes b = {3};
  Bytes combined = Concat({a, b, a});
  EXPECT_EQ(combined, (Bytes{1, 2, 3, 1, 2}));
}

TEST(Serde, WriterReaderRoundTrip) {
  ByteWriter w;
  w.U8(7);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.Var(Bytes{9, 8, 7});
  w.Str("hello");
  w.Fixed(Bytes{1, 2, 3, 4});

  ByteReader r(w.bytes(), "test message");
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  auto var = r.Var();
  EXPECT_EQ(Bytes(var.begin(), var.end()), (Bytes{9, 8, 7}));
  EXPECT_EQ(r.Str(), "hello");
  std::array<uint8_t, 4> fixed{};
  r.Fixed(fixed);
  EXPECT_EQ(fixed, (std::array<uint8_t, 4>{1, 2, 3, 4}));
  EXPECT_EQ(r.remaining(), 0u);
  auto done = r.Finish(1);
  ASSERT_TRUE(done.ok()) << done.status;
}

TEST(Serde, ReaderRejectsTruncation) {
  ByteWriter w;
  w.U64(42);
  ByteReader r(w.bytes(), "test message");
  (void)r.U32();
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorrupted);
  EXPECT_EQ(r.status().reason(), "test message: truncated field at offset 4");
  // The first failure sticks; later reads do nothing.
  EXPECT_EQ(r.U8(), 0u);
  EXPECT_EQ(r.status().reason(), "test message: truncated field at offset 4");
  ByteReader r2(w.bytes(), "test message");
  (void)r2.U64();
  EXPECT_EQ(r2.U8(), 0u);
  EXPECT_FALSE(r2.Finish(0).ok());
}

TEST(Serde, FinishRejectsTrailing) {
  ByteWriter w;
  w.U16(1);
  w.U8(2);
  ByteReader r(w.bytes(), "test message");
  (void)r.U16();
  auto done = r.Finish(0);
  ASSERT_FALSE(done.ok());
  EXPECT_EQ(done.status.code(), StatusCode::kCorrupted);
  EXPECT_EQ(done.status.reason(), "test message: trailing bytes at offset 2");
}

TEST(Status, Composition) {
  Status ok = Status::Ok();
  Status err = Status::Error("boom");
  EXPECT_TRUE(ok.ok());
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.reason(), "boom");
  EXPECT_TRUE(ok.And(ok).ok());
  EXPECT_FALSE(ok.And(err).ok());
  EXPECT_EQ(err.And(Status::Error("later")).reason(), "boom");  // first failure wins
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_FALSE(static_cast<bool>(err));
}

TEST(Outcome, AccessDiscipline) {
  auto good = Outcome<int>::Ok(41);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(*good, 41);
  *good += 1;
  EXPECT_EQ(*good, 42);
  auto bad = Outcome<int>::Fail("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status.reason(), "nope");
  EXPECT_THROW((void)*bad, ProtocolError);
}

TEST(Stats, MedianAndPercentiles) {
  EXPECT_DOUBLE_EQ(Median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 50), 3.0);
  EXPECT_THROW((void)Median({}), ProtocolError);
  EXPECT_THROW((void)Percentile({1.0}, 101), ProtocolError);
}

TEST(Stats, Summary) {
  StatSummary s = Summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 0.001);
}

TEST(Table, FormatAndCsv) {
  TextTable table("demo");
  table.SetHeader({"a", "bb"});
  table.AddRow({"1", "2"});
  table.AddRow({"333", "4"});
  std::string text = table.Format();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("333"), std::string::npos);
  EXPECT_EQ(table.Csv(), "a,bb\n1,2\n333,4\n");
  EXPECT_THROW(table.AddRow({"only-one"}), ProtocolError);
}

TEST(Table, FormattingHelpers) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_NE(FormatSeconds(5e-9).find("ns"), std::string::npos);
  EXPECT_NE(FormatSeconds(5e-6).find("us"), std::string::npos);
  EXPECT_NE(FormatSeconds(5e-3).find("ms"), std::string::npos);
  EXPECT_NE(FormatSeconds(5).find("s"), std::string::npos);
  EXPECT_NE(FormatSeconds(500).find("min"), std::string::npos);
  EXPECT_NE(FormatSeconds(50000).find("h"), std::string::npos);
  EXPECT_NE(FormatSeconds(1e9).find("years"), std::string::npos);
  EXPECT_EQ(FormatMinutes(120.0, true), "2*");
  EXPECT_EQ(FormatMinutes(120.0, false), "2");
}

TEST(Clock, WallTimerAdvances) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  double elapsed = timer.Seconds();
  EXPECT_GT(elapsed, 0.004);
  EXPECT_LT(elapsed, 1.0);
  timer.Reset();
  EXPECT_LT(timer.Seconds(), 0.004);
}

TEST(Clock, VirtualClockAccumulates) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.Seconds(), 0.0);
  clock.Advance(1.5);
  clock.Advance(0.25);
  EXPECT_DOUBLE_EQ(clock.Seconds(), 1.75);
  EXPECT_THROW(clock.Advance(-1.0), ProtocolError);
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.Seconds(), 0.0);
}

TEST(Clock, CpuSampleArithmetic) {
  CpuSample a{2.0, 1.0};
  CpuSample b{0.5, 0.25};
  CpuSample d = a - b;
  EXPECT_DOUBLE_EQ(d.user_seconds, 1.5);
  EXPECT_DOUBLE_EQ(d.system_seconds, 0.75);
  EXPECT_DOUBLE_EQ(d.Total(), 2.25);
}

}  // namespace
}  // namespace votegral
