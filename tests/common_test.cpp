// Unit tests for the common layer: strong ids, byte codec, RNG, histogram.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace cts {
namespace {

// --- Strong ids ---------------------------------------------------------------

TEST(TypesTest, DefaultIdsAreInvalid) {
  EXPECT_FALSE(NodeId{}.valid());
  EXPECT_FALSE(GroupId{}.valid());
  EXPECT_FALSE(ThreadId{}.valid());
}

TEST(TypesTest, ExplicitIdsAreValidAndComparable) {
  NodeId a{1}, b{2}, a2{1};
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
}

TEST(TypesTest, ToStringUsesTypedPrefixes) {
  EXPECT_EQ(to_string(NodeId{3}), "n3");
  EXPECT_EQ(to_string(GroupId{7}), "g7");
  EXPECT_EQ(to_string(ConnectionId{1}), "c1");
  EXPECT_EQ(to_string(ThreadId{0}), "t0");
  EXPECT_EQ(to_string(ReplicaId{2}), "r2");
}

TEST(TypesTest, IdsAreHashable) {
  std::set<NodeId> s{NodeId{1}, NodeId{2}, NodeId{1}};
  EXPECT_EQ(s.size(), 2u);
  std::hash<NodeId> h;
  EXPECT_EQ(h(NodeId{5}), h(NodeId{5}));
}

// --- Byte codec ----------------------------------------------------------------

TEST(BytesTest, RoundTripsAllScalarWidths) {
  BytesWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.boolean(true);
  w.boolean(false);

  BytesReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(BytesTest, RoundTripsStringsAndBytes) {
  BytesWriter w;
  w.str("hello world");
  Bytes blob{1, 2, 3, 255};
  w.bytes(blob);
  w.str("");

  BytesReader r(w.data());
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(BytesTest, ThrowsOnTruncatedScalar) {
  BytesWriter w;
  w.u16(7);
  BytesReader r(w.data());
  EXPECT_THROW(r.u64(), CodecError);
}

TEST(BytesTest, ThrowsOnLyingLengthPrefix) {
  BytesWriter w;
  w.u32(1000);  // claims 1000 bytes follow; none do
  BytesReader r(w.data());
  EXPECT_THROW(r.bytes(), CodecError);
}

TEST(BytesTest, ThrowsOnEmptyBuffer) {
  const Bytes empty;
  BytesReader r(empty);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), CodecError);
  EXPECT_THROW(r.str(), CodecError);
}

TEST(BytesTest, HostileLengthPrefixNearMaxDoesNotWrap) {
  // A length prefix of 0xffffffff must fail the bounds check, not wrap
  // pos_ + n around SIZE_MAX and read out of bounds.
  BytesWriter w;
  w.u32(0xffffffffu);
  w.u8(1);  // one real byte behind the lying prefix
  BytesReader r(w.data());
  EXPECT_THROW(r.bytes(), CodecError);
}

TEST(BytesTest, OversizedStringPrefixThrows) {
  BytesWriter w;
  w.str("abc");
  Bytes raw = std::move(w).take();
  raw[0] = 200;  // claim 200 bytes; only 3 follow
  BytesReader r(raw);
  EXPECT_THROW(r.str(), CodecError);
}

TEST(BytesTest, TruncationErrorMentionsCounts) {
  BytesWriter w;
  w.u16(0x0201);
  BytesReader r(w.data());
  try {
    r.u64();
    FAIL() << "expected CodecError";
  } catch (const CodecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("need 8"), std::string::npos) << what;
    EXPECT_NE(what.find("have 2"), std::string::npos) << what;
  }
}

TEST(BytesTest, FailedReadLeavesReaderPositionIntact) {
  // A rejected read must not half-consume the buffer: the caller can still
  // read whatever genuinely remains.
  BytesWriter w;
  w.u16(0x1234);
  BytesReader r(w.data());
  EXPECT_THROW(r.u64(), CodecError);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(r.u16(), 0x1234);
}

TEST(BytesTest, SkipAdvancesAndBoundsChecks) {
  BytesWriter w;
  w.u32(0xaabbccdd);
  w.u8(0x42);
  BytesReader r(w.data());
  r.skip(4);
  EXPECT_EQ(r.u8(), 0x42);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.skip(1), CodecError);
}

TEST(BytesTest, LoadStoreU32RoundTrip) {
  Bytes buf(6, 0xee);
  store_u32le(buf.data() + 1, 0x01020304u);
  EXPECT_EQ(load_u32le(buf.data() + 1), 0x01020304u);
  // Little-endian on the wire, untouched guard bytes around the field.
  EXPECT_EQ(buf[0], 0xee);
  EXPECT_EQ(buf[1], 0x04);
  EXPECT_EQ(buf[4], 0x01);
  EXPECT_EQ(buf[5], 0xee);
}

TEST(BytesTest, WriterLaysOutScalarsLittleEndian) {
  BytesWriter w;
  w.u8(0x01);
  w.u16(0x0302);
  w.u32(0x07060504u);
  w.u64(0x0f0e0d0c0b0a0908ULL);
  w.i64(-2);
  const Bytes expected{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a,
                       0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0xfe, 0xff, 0xff, 0xff, 0xff,
                       0xff, 0xff, 0xff};
  EXPECT_EQ(w.data(), expected);
}

TEST(BytesTest, RemainingTracksConsumption) {
  BytesWriter w;
  w.u32(1);
  w.u32(2);
  BytesReader r(w.data());
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  r.u32();
  EXPECT_TRUE(r.done());
}

TEST(BytesTest, WriterDataStaysExactAcrossFurtherWrites) {
  // data() trims the growing store to what was written; later writes
  // re-expose the spare capacity and the next data() sees all of it.
  BytesWriter w;
  w.u32(0x04030201u);
  EXPECT_EQ(w.data(), (Bytes{1, 2, 3, 4}));
  w.u8(5);
  w.raw(Bytes(100, 6));  // past the first allocation
  ASSERT_EQ(w.data().size(), 105u);
  EXPECT_EQ(w.data()[4], 5);
  EXPECT_EQ(w.data().back(), 6);
  EXPECT_EQ(std::move(w).take().size(), 105u);
}

TEST(BytesTest, FixedWriterFillsOneBlockInPlace) {
  BytesWriter grown;
  grown.u8(1);
  grown.u64(0x0102030405060708ULL);
  grown.str("xyz");
  BytesWriter fixed = BytesWriter::fixed(grown.size());
  fixed.u8(1);
  fixed.u64(0x0102030405060708ULL);
  fixed.str("xyz");
  const SharedBytes sealed = std::move(fixed).take_shared();
  EXPECT_EQ(sealed.to_bytes(), grown.data());
}

TEST(BytesTest, FixedWriterRejectsOverrunAndShortFill) {
  BytesWriter over = BytesWriter::fixed(3);
  over.u16(7);
  EXPECT_THROW(over.u16(8), std::length_error);  // one byte left, two asked
  BytesWriter shortfall = BytesWriter::fixed(8);
  shortfall.u32(1);  // four bytes never written must not reach the wire
  EXPECT_THROW((void)std::move(shortfall).take_shared(), std::logic_error);
}

// --- RNG --------------------------------------------------------------------------

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, RangeIsInclusiveAndCoversEndpoints) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.range(3, 5);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  double acc = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    acc += u;
  }
  EXPECT_NEAR(acc / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceRespectsProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RngTest, GaussianMeanAndSpread) {
  Rng rng(13);
  double acc = 0, acc2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.gaussian(10.0, 2.0);
    acc += g;
    acc2 += g * g;
  }
  const double mean = acc / n;
  const double var = acc2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.4);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(17);
  double acc = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) acc += rng.exponential(100.0);
  EXPECT_NEAR(acc / n, 100.0, 5.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  // The child must not replay the parent's stream.
  Rng a2(5);
  a2.fork();
  EXPECT_EQ(a.next(), a2.next());  // parent streams still aligned
  int same = 0;
  Rng c2 = Rng(5).fork();
  for (int i = 0; i < 64; ++i) same += (child.next() == c2.next());
  EXPECT_EQ(same, 64);  // forking is itself deterministic
}

// --- Histogram ----------------------------------------------------------------------

TEST(HistogramTest, CountMeanMinMax) {
  Histogram h(10, 1000);
  h.add(10);
  h.add(20);
  h.add(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 30);
}

TEST(HistogramTest, PercentilesOnKnownData) {
  Histogram h(1, 200);
  for (Micros v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.percentile(0.0), 1);
  EXPECT_EQ(h.percentile(0.5), 50);
  EXPECT_EQ(h.percentile(1.0), 100);
}

TEST(HistogramTest, ModeBinFindsThePeak) {
  Histogram h(10, 1000);
  for (int i = 0; i < 5; ++i) h.add(500 + i);  // 5 samples in bin 500
  h.add(100);
  h.add(900);
  EXPECT_EQ(h.mode_bin(), 500);
}

TEST(HistogramTest, DensitySumsToOne) {
  Histogram h(50, 2000);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) h.add(rng.range(0, 1999));
  double total = 0;
  for (auto [_, d] : h.density()) total += d;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HistogramTest, OverflowSamplesLandInLastBin) {
  Histogram h(10, 100);
  h.add(5000);  // way past max_value
  EXPECT_EQ(h.count(), 1u);
  auto rows = h.density();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, 100);  // the overflow bin
}

TEST(HistogramTest, NegativeSamplesCountAsUnderflowNotBinZero) {
  // A negative latency is a causality bug upstream; folding it into bin 0
  // would silently distort the density, so add() diverts it to a dedicated
  // underflow stat instead.
  Histogram h(10, 100);
  h.add(-50);
  h.add(-3);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.underflow_min(), -50);
  EXPECT_TRUE(h.density().empty());

  h.add(5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);  // underflow excluded from the stats
  const auto t = h.table("skew");
  EXPECT_NE(t.find("underflow=2"), std::string::npos) << t;
}

TEST(HistogramTest, UnderflowMinIsZeroWithoutUnderflow) {
  Histogram h(10, 100);
  h.add(7);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.underflow_min(), 0);
}

TEST(HistogramTest, ModeBinIgnoresTheOverflowCatchAll) {
  // Ten samples land past max_value, five in a real bin: the overflow
  // catch-all has the most mass, but it is not a real bin and must never
  // be reported as the distribution's mode.
  Histogram h(10, 100);
  for (int i = 0; i < 10; ++i) h.add(5000);
  for (int i = 0; i < 5; ++i) h.add(42);
  EXPECT_EQ(h.mode_bin(), 40);
  EXPECT_EQ(h.overflow(), 10u);
}

TEST(HistogramTest, TableContainsSummary) {
  Histogram h(10, 100);
  h.add(42);
  auto t = h.table("latency");
  EXPECT_NE(t.find("latency"), std::string::npos);
  EXPECT_NE(t.find("n=1"), std::string::npos);
}

}  // namespace
}  // namespace cts
