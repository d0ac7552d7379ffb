#include "src/crypto/msm.h"

#include <algorithm>
#include <array>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/executor.h"
#include "src/common/status.h"

namespace votegral {

namespace {

// Signed width-w NAF digits of a scalar, least significant first. Digits are
// odd with |d| < 2^(w-1), and any w consecutive positions hold at most one
// nonzero digit, so an interleaved ladder pays ~256/(w+1) additions per term.
using NafDigits = std::array<int8_t, 256>;

// Computes the width-w NAF of `s` and returns the number of digit positions
// actually used (index of the highest nonzero digit, plus one). Scalars are
// canonical (< ℓ < 2^253); negative-digit corrections can carry at most a few
// bits past the top, so 256 positions always suffice for w <= 8.
size_t ComputeWnaf(const Scalar& s, int w, NafDigits& naf) {
  naf.fill(0);
  std::array<uint64_t, 5> k{};
  auto bytes = s.ToBytes();
  for (int i = 0; i < 4; ++i) {
    k[static_cast<size_t>(i)] = LoadLe64(bytes.data() + 8 * i);
  }
  const uint64_t window = uint64_t{1} << w;
  const uint64_t half = window >> 1;
  size_t used = 0;
  for (size_t pos = 0; pos < 256; ++pos) {
    if ((k[0] | k[1] | k[2] | k[3] | k[4]) == 0) {
      break;
    }
    if (k[0] & 1) {
      uint64_t d = k[0] & (window - 1);
      if (d < half) {
        naf[pos] = static_cast<int8_t>(d);
        k[0] -= d;  // low w bits of k equal d: no borrow
      } else {
        naf[pos] = static_cast<int8_t>(static_cast<int64_t>(d) -
                                       static_cast<int64_t>(window));
        uint64_t carry = window - d;  // k += 2^w - d
        for (size_t i = 0; i < 5 && carry != 0; ++i) {
          uint64_t prev = k[i];
          k[i] += carry;
          carry = (k[i] < prev) ? 1 : 0;
        }
      }
      used = pos + 1;
    }
    for (size_t i = 0; i < 4; ++i) {
      k[i] = (k[i] >> 1) | (k[i + 1] << 63);
    }
    k[4] >>= 1;
  }
  return used;
}

// Odd multiples P, 3P, 5P, ..., (2*Count - 1)P, prepared as addends.
template <size_t Count>
std::array<CachedPoint, Count> OddMultiples(const RistrettoPoint& p) {
  std::array<CachedPoint, Count> table;
  table[0] = CachedPoint(p);
  const CachedPoint p2(p.Double());
  RistrettoPoint multiple = p;
  for (size_t i = 1; i < Count; ++i) {
    multiple = multiple + p2;
    table[i] = CachedPoint(multiple);
  }
  return table;
}

// Precomputed odd multiples of the basepoint for the width-8 fixed-base NAF:
// B, 3B, ..., 127B. Built once per process.
const std::array<CachedPoint, 64>& BaseOddMultiples() {
  static const std::array<CachedPoint, 64> kTable = OddMultiples<64>(RistrettoPoint::Base());
  return kTable;
}

// Adds the digit contribution d * (table of odd multiples) into `acc`, first
// paying the `owed` doublings of `acc` as one chain.
template <size_t Count>
void AddNafDigit(RistrettoPoint& acc, unsigned& owed, const std::array<CachedPoint, Count>& table,
                 int8_t d) {
  if (d == 0) {
    return;
  }
  acc = acc.MulByPow2(owed);
  owed = 0;
  if (d > 0) {
    acc = acc + table[static_cast<size_t>(d >> 1)];
  } else {
    acc = acc - table[static_cast<size_t>((-d) >> 1)];
  }
}

// Straus interleaved ladder: one shared doubling chain, width-5 wNAF per
// variable point over its odd multiples P, 3P, ..., 15P, and width-8 wNAF
// for the optional fixed-base term.
RistrettoPoint StrausMsm(const Scalar* base_scalar, std::span<const Scalar> scalars,
                         std::span<const RistrettoPoint> points) {
  const size_t n = scalars.size();
  std::vector<std::array<CachedPoint, 8>> tables(n);
  std::vector<NafDigits> nafs(n);
  size_t height = 0;
  for (size_t i = 0; i < n; ++i) {
    tables[i] = OddMultiples<8>(points[i]);
    height = std::max(height, ComputeWnaf(scalars[i], 5, nafs[i]));
  }
  NafDigits base_naf{};
  if (base_scalar != nullptr) {
    height = std::max(height, ComputeWnaf(*base_scalar, 8, base_naf));
  }

  // Each position owes one doubling, paid just before the next addition, so
  // a run of positions without digits (most of them when n is small) is one
  // doubling chain that computes T only at its end.
  RistrettoPoint acc;  // identity
  unsigned owed = 0;
  for (size_t pos = height; pos-- > 0;) {
    ++owed;
    for (size_t i = 0; i < n; ++i) {
      AddNafDigit(acc, owed, tables[i], nafs[i][pos]);
    }
    if (base_scalar != nullptr) {
      AddNafDigit(acc, owed, BaseOddMultiples(), base_naf[pos]);
    }
  }
  return acc.MulByPow2(owed);
}

// Window width for Pippenger as a function of term count; roughly log2(n),
// chosen to minimize ceil(253/w)*(n + 2^w) with signed digits (which halve
// the bucket count relative to unsigned radix-2^w).
int PippengerWindow(size_t n) {
  if (n < 400) return 6;
  if (n < 900) return 7;
  if (n < 2500) return 8;
  if (n < 10000) return 9;
  if (n < 40000) return 10;
  if (n < 150000) return 11;
  return 12;
}

// Reads the w-bit window starting at `bit` from a 32-byte little-endian
// scalar encoding (w <= 12, so at most three bytes contribute). Windows
// beyond bit 255 read as zero.
uint32_t ExtractWindow(const std::array<uint8_t, 32>& bytes, size_t bit, int w) {
  if (bit >= 256) {
    return 0;
  }
  size_t byte = bit / 8;
  int shift = static_cast<int>(bit % 8);
  uint32_t v = static_cast<uint32_t>(bytes[byte]) >> shift;
  int got = 8 - shift;
  for (size_t k = byte + 1; got < w && k < 32; ++k, got += 8) {
    v |= static_cast<uint32_t>(bytes[k]) << got;
  }
  return v & ((uint32_t{1} << w) - 1);
}

// A bucket pass reads each term in place, or through a pointer to a point
// the caller keeps (MultiScalarMulRefs).
const RistrettoPoint& TermOf(const RistrettoPoint& point) { return point; }
const RistrettoPoint& TermOf(const RistrettoPoint* point) { return *point; }

// One window's bucket pass of Pippenger with *signed* radix-2^w digits
// (signed recoding halves the bucket count; negative digits subtract the
// point, which costs the same as adding it). Terms are sorted into buckets
// by |digit| with one addition per term, then the buckets collapse with the
// running-suffix trick:
//   sum_d d * bucket[d] = sum over suffixes of (bucket[max] + ... + bucket[d]),
// i.e. two additions per bucket instead of a multiplication per bucket.
// `Term` is RistrettoPoint, or a pointer to one, for the caller's own
// points (MultiScalarMul, MultiScalarMulRefs): each addition converts its
// point to cached form again, nine multiplications where a prepared copy
// would cost eight, but a prepared copy is a second n-point array, which
// showed in the tally's and the verifier's peak memory. Returns whether any
// digit was nonzero.
template <typename Term>
bool PippengerWindowPass(std::span<const Term> points, std::span<const int16_t> digits,
                         size_t win, size_t nwindows, size_t nbuckets,
                         RistrettoPoint* window_total) {
  const size_t n = points.size();
  std::vector<RistrettoPoint> buckets(nbuckets);
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    int16_t digit = digits[i * nwindows + win];
    if (digit == 0) {
      continue;
    }
    const size_t b = static_cast<size_t>(digit > 0 ? digit : -digit) - 1;
    buckets[b] = digit > 0 ? buckets[b] + TermOf(points[i]) : buckets[b] - TermOf(points[i]);
    any = true;
  }
  *window_total = RistrettoPoint::Identity();
  if (any) {
    RistrettoPoint running;  // bucket suffix sum
    for (size_t b = nbuckets; b-- > 0;) {
      running = running + buckets[b];
      *window_total = *window_total + running;
    }
  }
  return any;
}

template <typename Term>
RistrettoPoint PippengerMsm(std::span<const Scalar> scalars, std::span<const Term> points) {
  const size_t n = scalars.size();
  const int w = PippengerWindow(n);
  const size_t nbuckets = size_t{1} << (w - 1);
  // One extra window absorbs the recoding carry out of the top bits.
  const size_t nwindows = (256 + static_cast<size_t>(w) - 1) / static_cast<size_t>(w) + 1;
  // Scope-bound executor: inherits the caller's pool (or its serial
  // Executor(1)) instead of unconditionally waking the global one.
  Executor& executor = Executor::Current();

  // Signed-digit recoding, all scalars up front (cache-friendly window pass).
  std::vector<int16_t> digits(n * nwindows);
  const int32_t half = int32_t{1} << (w - 1);
  const int32_t full = int32_t{1} << w;
  executor.ParallelForEach(n, [&](size_t i) {
    auto bytes = scalars[i].ToBytes();
    int32_t carry = 0;
    for (size_t win = 0; win < nwindows; ++win) {
      int32_t d = static_cast<int32_t>(ExtractWindow(
                      bytes, win * static_cast<size_t>(w), w)) +
                  carry;
      if (d > half) {
        d -= full;
        carry = 1;
      } else {
        carry = 0;
      }
      digits[i * nwindows + win] = static_cast<int16_t>(d);
    }
    // Canonical scalars are < 2^253 < 2^(w*(nwindows-1)), so the recoding
    // carry always terminates inside the extra window.
  });

  // Window bucket passes are mutually independent: run them on the pool,
  // one per-window total each, then fold the totals with the shared doubling
  // chain. The fold costs ~256 doublings regardless of n, so all the O(n)
  // work parallelizes. Group addition is exact, and each window keeps the
  // seed's term order, so the result is bit-identical at any thread count.
  std::vector<RistrettoPoint> window_totals(nwindows);
  std::vector<uint8_t> window_any(nwindows, 0);
  executor.ParallelForEach(nwindows, [&](size_t win) {
    window_any[win] = PippengerWindowPass<Term>(points, digits, win, nwindows, nbuckets,
                                                &window_totals[win])
                          ? 1
                          : 0;
  });

  RistrettoPoint acc;  // identity
  bool started = false;
  for (size_t win = nwindows; win-- > 0;) {
    if (started) {
      acc = acc.MulByPow2(static_cast<unsigned>(w));
    }
    if (window_any[win]) {
      acc = acc + window_totals[win];
      started = true;
    }
  }
  return acc;
}

}  // namespace

RistrettoPoint MultiScalarMulRefs(const Scalar& base_scalar, std::span<const Scalar> scalars,
                                  std::span<const RistrettoPoint* const> points) {
  Require(scalars.size() == points.size(), "msm: scalar/point count mismatch");
  if (scalars.size() >= kPippengerThreshold) {
    return PippengerMsm<const RistrettoPoint*>(scalars, points) +
           RistrettoPoint::MulBase(base_scalar);
  }
  // Straus builds a table per point anyway, so it takes copies.
  std::vector<RistrettoPoint> copies(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    copies[i] = *points[i];
  }
  return StrausMsm(&base_scalar, scalars, copies);
}

RistrettoPoint MultiScalarMul(std::span<const Scalar> scalars,
                              std::span<const RistrettoPoint> points) {
  Require(scalars.size() == points.size(), "msm: scalar/point count mismatch");
  if (scalars.empty()) {
    return RistrettoPoint::Identity();
  }
  if (scalars.size() < kPippengerThreshold) {
    return StrausMsm(nullptr, scalars, points);
  }
  return PippengerMsm<RistrettoPoint>(scalars, points);
}

RistrettoPoint MultiScalarMulWithBase(const Scalar& base_scalar,
                                      std::span<const Scalar> scalars,
                                      std::span<const RistrettoPoint> points) {
  Require(scalars.size() == points.size(), "msm: scalar/point count mismatch");
  if (scalars.size() < kPippengerThreshold) {
    return StrausMsm(&base_scalar, scalars, points);
  }
  // At Pippenger scale the fixed-base term is one of thousands; the
  // precomputed-table MulBase (64 additions) is cheaper than widening the
  // bucket pass by one term.
  return PippengerMsm<RistrettoPoint>(scalars, points) + RistrettoPoint::MulBase(base_scalar);
}

RistrettoPoint MultiScalarMulNaive(std::span<const Scalar> scalars,
                                   std::span<const RistrettoPoint> points) {
  Require(scalars.size() == points.size(), "msm: scalar/point count mismatch");
  RistrettoPoint acc;
  for (size_t i = 0; i < scalars.size(); ++i) {
    acc = acc + scalars[i] * points[i];
  }
  return acc;
}

// Defined here rather than in ristretto.cpp so the Schnorr verification
// workhorse rides the shared-doubling ladder with the wide fixed-base table.
RistrettoPoint RistrettoPoint::DoubleScalarMulBase(const Scalar& a, const RistrettoPoint& p,
                                                   const Scalar& b) {
  return MultiScalarMulWithBase(b, std::span<const Scalar>(&a, 1),
                                std::span<const RistrettoPoint>(&p, 1));
}

}  // namespace votegral
