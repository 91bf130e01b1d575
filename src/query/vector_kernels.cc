// Copyright 2026 The AmnesiaDB Authors

#include "query/vector_kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "obs/engine_metrics.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>
#endif

namespace amnesia {

// Per-morsel metric notes. One relaxed increment pair per ~64K-row morsel
// — invisible next to the kernel work it brackets. Compiled out entirely
// under AMNESIA_NO_METRICS (not even the registry lookup remains).
void NoteMorselScanned(uint64_t rows) {
#if !defined(AMNESIA_NO_METRICS)
  obs::EngineMetrics& m = obs::EngineMetrics::Get();
  m.scan_morsels_scanned->Inc();
  m.scan_rows_scanned->Inc(rows);
#else
  (void)rows;
#endif
}

namespace {

inline void NoteMorselSkipped() {
#if !defined(AMNESIA_NO_METRICS)
  obs::EngineMetrics::Get().scan_morsels_skipped->Inc();
#endif
}

// The skip check each morsel kernel runs before touching a column: counts
// the morsel's live rows (kAll never skips, so it needs no count) and notes
// a wholesale skip.
bool SkipMorsel(const Table& table, Visibility visibility, Morsel morsel) {
  if (visibility == Visibility::kAll ||
      !SkipsWholesale(visibility, MorselLiveCount(table, morsel),
                      morsel.size())) {
    return false;
  }
  NoteMorselSkipped();
  return true;
}

constexpr uint64_t kAllOnes = ~uint64_t{0};

// Lanes per match word; the dense/sparse dispatch unit.
constexpr uint64_t kLanesPerWord = 64;

inline uint64_t PopCount(uint64_t word) {
  return static_cast<uint64_t>(__builtin_popcountll(word));
}

// Evaluates the one-compare range test over 64 lanes and packs the results
// into one match word. Two stages keep it branch-free AND fast: the
// compare loop stores 0/1 bytes (auto-vectorizable, no cross-lane
// dependency), then each 8-byte chunk collapses to 8 bits with the
// multiply-pack trick ((chunk * 0x0102040810204080) >> 56 places byte g's
// 0/1 at bit g; bytes are 0/1 so the partial products never carry). A
// single `word |= cond << b` loop would instead serialize 64 variable
// shifts through one accumulator — ~4x slower.
inline uint64_t PackSelectWord(const Value* lanes, uint64_t ulo,
                               uint64_t span) {
  uint8_t m[kLanesPerWord];
  for (uint64_t b = 0; b < kLanesPerWord; ++b) {
    m[b] = static_cast<uint8_t>(static_cast<uint64_t>(lanes[b]) - ulo < span);
  }
  uint64_t word = 0;
  for (uint64_t g = 0; g < 8; ++g) {
    uint64_t chunk;
    std::memcpy(&chunk, m + g * 8, sizeof(chunk));
    word |= ((chunk * 0x0102040810204080ull) >> 56) << (g * 8);
  }
  return word;
}

// Dense unmasked accumulation over one full word's 64 lanes: no mask
// reads, so the compiler vectorizes the sum/extrema reductions.
inline void AccumulateDense64(const Value* lanes, VectorAggState* agg) {
  double sum = 0.0;
  double sum_sq = 0.0;
  Value lo = lanes[0];
  Value hi = lanes[0];
  for (uint64_t b = 0; b < kLanesPerWord; ++b) {
    const Value v = lanes[b];
    const double dv = static_cast<double>(v);
    sum += dv;
    sum_sq += dv * dv;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  agg->count += kLanesPerWord;
  agg->sum += sum;
  agg->sum_sq += sum_sq;
  agg->min = std::min(agg->min, lo);
  agg->max = std::max(agg->max, hi);
}

// Sparse accumulation: set-bit iteration touches only selected lanes.
inline void AccumulateSparse(const Value* lanes, uint64_t word,
                             VectorAggState* agg) {
  while (word != 0) {
    const uint64_t b = static_cast<uint64_t>(__builtin_ctzll(word));
    const Value v = lanes[b];
    const double dv = static_cast<double>(v);
    agg->sum += dv;
    agg->sum_sq += dv * dv;
    agg->min = std::min(agg->min, v);
    agg->max = std::max(agg->max, v);
    ++agg->count;
    word &= word - 1;
  }
}

// The visibility mask of word w of a fused kernel: all ones under kAll
// (`vis` null), else the morsel's active word, complemented under
// kForgottenOnly (`invert`).
inline uint64_t VisibilityWord(const uint64_t* vis, bool invert, uint64_t w) {
  if (vis == nullptr) return kAllOnes;
  return invert ? ~vis[w] : vis[w];
}

// The one-compare range test over one word's 64 lanes, masked by `visw`:
// bit b is set iff lanes[b] matches and bit b of `visw` is set. lo <= v <
// hi iff uint64(v) - ulo < span (RangePredicate::UnsignedSpan): the
// subtraction wraps in the unsigned domain, so the test is exact across
// the full signed domain, extremes included.
inline uint64_t MatchWord(const Value* lanes, uint64_t ulo, uint64_t span,
                          uint64_t visw) {
#if defined(__AVX512F__) && defined(__AVX512DQ__)
  // The visibility byte of each 8-lane group is the compare's write mask.
  const __m512i vlo = _mm512_set1_epi64(static_cast<long long>(ulo));
  const __m512i vspan = _mm512_set1_epi64(static_cast<long long>(span));
  uint64_t word = 0;
  for (uint64_t g = 0; g < 8; ++g) {
    const __mmask8 kvis = static_cast<__mmask8>(visw >> (g * 8));
    const __m512i v = _mm512_loadu_si512(lanes + g * 8);
    const __mmask8 k =
        _mm512_mask_cmplt_epu64_mask(kvis, _mm512_sub_epi64(v, vlo), vspan);
    word |= static_cast<uint64_t>(k) << (g * 8);
  }
  return word;
#else
  return PackSelectWord(lanes, ulo, span) & visw;
#endif
}

// The range test over the `rem` < 64 lanes of a tail word. Only bits below
// rem can be set, so an inverted visibility word's stray tail ones cannot
// leak in when it is ANDed on.
inline uint64_t TailMatchWord(const Value* lanes, uint64_t rem, uint64_t ulo,
                              uint64_t span) {
  uint64_t word = 0;
  for (uint64_t b = 0; b < rem; ++b) {
    word |= static_cast<uint64_t>(static_cast<uint64_t>(lanes[b]) - ulo < span)
            << b;
  }
  return word;
}

// Fused select+accumulate over [data, data+n): evaluates the range test
// word-at-a-time, masks it with the visibility words (`vis` null for
// kAll, `invert` for kForgottenOnly) and accumulates the surviving lanes
// while they are still hot in registers/L1 — the aggregate never
// materializes a selection bitmap or re-reads the column slice.
#if defined(__AVX512F__) && defined(__AVX512DQ__)
// AVX-512 form: the visibility word doubles as the lane write-mask, so the
// predicate compare (vpcmpuq), the sum/sum-of-squares FMAs and the
// int64-domain extrema (vpminsq/vpmaxsq) are all single masked
// instructions per 8 lanes — no bit unpacking, no per-selected-lane
// scatter/gather. Lane-parallel partial sums reassociate the additions
// (callers tolerate that for sum/avg/variance); count/min/max stay exact.
// GCC's masked-intrinsic wrappers feed _mm512_undefined_* merge sources
// to the builtins, which trips -Wmaybe-uninitialized false positives once
// inlined here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
void FusedAggregateRange(const Value* data, uint64_t n, uint64_t ulo,
                         uint64_t span, const uint64_t* vis, bool invert,
                         VectorAggState* agg) {
  const __m512i vlo = _mm512_set1_epi64(static_cast<long long>(ulo));
  const __m512i vspan = _mm512_set1_epi64(static_cast<long long>(span));
  __m512d vsum = _mm512_setzero_pd();
  __m512d vsq = _mm512_setzero_pd();
  __m512i vmin = _mm512_set1_epi64(std::numeric_limits<Value>::max());
  __m512i vmax = _mm512_set1_epi64(std::numeric_limits<Value>::min());
  uint64_t count = 0;
  const uint64_t full = n / kLanesPerWord;
  for (uint64_t w = 0; w < full; ++w) {
    const uint64_t visw = VisibilityWord(vis, invert, w);
    if (visw == 0) continue;
    const Value* lanes = data + w * kLanesPerWord;
    for (uint64_t g = 0; g < 8; ++g) {
      const __mmask8 kvis = static_cast<__mmask8>(visw >> (g * 8));
      if (kvis == 0) continue;
      const __m512i v = _mm512_loadu_si512(lanes + g * 8);
      const __mmask8 k = _mm512_mask_cmplt_epu64_mask(
          kvis, _mm512_sub_epi64(v, vlo), vspan);
      // No k == 0 early-out: at mid selectivities that branch is
      // unpredictable and the mispredicts cost more than the masked
      // accumulation ops, which are no-ops under an all-zero mask anyway.
      count += PopCount(k);
      const __m512d vd = _mm512_cvtepi64_pd(v);
      vsum = _mm512_mask_add_pd(vsum, k, vsum, vd);
      vsq = _mm512_mask3_fmadd_pd(vd, vd, vsq, k);
      vmin = _mm512_mask_min_epi64(vmin, k, vmin, v);
      vmax = _mm512_mask_max_epi64(vmax, k, vmax, v);
    }
  }
  agg->count += count;
  agg->sum += _mm512_reduce_add_pd(vsum);
  agg->sum_sq += _mm512_reduce_add_pd(vsq);
  agg->min = std::min(agg->min,
                      static_cast<Value>(_mm512_reduce_min_epi64(vmin)));
  agg->max = std::max(agg->max,
                      static_cast<Value>(_mm512_reduce_max_epi64(vmax)));
  const uint64_t rem = n - full * kLanesPerWord;
  if (rem != 0) {
    const Value* lanes = data + full * kLanesPerWord;
    AccumulateSparse(lanes,
                     TailMatchWord(lanes, rem, ulo, span) &
                         VisibilityWord(vis, invert, full),
                     agg);
  }
}
#pragma GCC diagnostic pop
#else
void FusedAggregateRange(const Value* data, uint64_t n, uint64_t ulo,
                         uint64_t span, const uint64_t* vis, bool invert,
                         VectorAggState* agg) {
  const uint64_t full = n / kLanesPerWord;
  for (uint64_t w = 0; w < full; ++w) {
    const Value* lanes = data + w * kLanesPerWord;
    const uint64_t word = PackSelectWord(lanes, ulo, span) &
                          VisibilityWord(vis, invert, w);
    if (word == 0) continue;
    if (word == kAllOnes) {
      AccumulateDense64(lanes, agg);
    } else {
      AccumulateSparse(lanes, word, agg);
    }
  }
  const uint64_t rem = n - full * kLanesPerWord;
  if (rem != 0) {
    const Value* lanes = data + full * kLanesPerWord;
    AccumulateSparse(lanes,
                     TailMatchWord(lanes, rem, ulo, span) &
                         VisibilityWord(vis, invert, full),
                     agg);
  }
}
#endif

// Fused select+popcount over [data, data+n): same structure as
// FusedAggregateRange but the only accumulator is the match count.
uint64_t FusedCountRange(const Value* data, uint64_t n, uint64_t ulo,
                         uint64_t span, const uint64_t* vis, bool invert) {
  uint64_t count = 0;
  const uint64_t full = n / kLanesPerWord;
  for (uint64_t w = 0; w < full; ++w) {
    const uint64_t visw = VisibilityWord(vis, invert, w);
    if (visw == 0) continue;
    count += PopCount(MatchWord(data + w * kLanesPerWord, ulo, span, visw));
  }
  const uint64_t rem = n - full * kLanesPerWord;
  if (rem != 0) {
    count += PopCount(TailMatchWord(data + full * kLanesPerWord, rem, ulo,
                                    span) &
                      VisibilityWord(vis, invert, full));
  }
  return count;
}

// Appends the set lanes of `word` (lanes first_lane.. of `data`) to `out`
// in ascending lane order: row_of(lane) as the row id, data[lane] as the
// value.
template <typename RowOf>
inline void EmitWord(uint64_t word, const Value* data, uint64_t first_lane,
                     const RowOf& row_of, ResultSet* out) {
  while (word != 0) {
    const uint64_t lane =
        first_lane + static_cast<uint64_t>(__builtin_ctzll(word));
    out->rows.push_back(row_of(lane));
    out->values.push_back(data[lane]);
    word &= word - 1;
  }
}

// Fused select+emit over [data, data+n): same structure as
// FusedCountRange, but every match word's set lanes are appended to `out`
// at once, with row_of(lane) as their row ids.
template <typename RowOf>
void FusedScanRange(const Value* data, uint64_t n, uint64_t ulo,
                    uint64_t span, const uint64_t* vis, bool invert,
                    const RowOf& row_of, ResultSet* out) {
  const uint64_t full = n / kLanesPerWord;
  for (uint64_t w = 0; w < full; ++w) {
    const uint64_t visw = VisibilityWord(vis, invert, w);
    if (visw == 0) continue;
    EmitWord(MatchWord(data + w * kLanesPerWord, ulo, span, visw), data,
             w * kLanesPerWord, row_of, out);
  }
  const uint64_t rem = n - full * kLanesPerWord;
  if (rem != 0) {
    EmitWord(TailMatchWord(data + full * kLanesPerWord, rem, ulo, span) &
                 VisibilityWord(vis, invert, full),
             data, full * kLanesPerWord, row_of, out);
  }
}

}  // namespace

uint64_t MorselLiveCount(const Table& table, Morsel morsel) {
  return table.active_bitmap().CountSetRange(morsel.begin, morsel.end);
}

void VectorAggState::Merge(const VectorAggState& other) {
  count += other.count;
  sum += other.sum;
  sum_sq += other.sum_sq;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

AggregateResult VectorAggState::Finish() const {
  AggregateResult out;
  out.count = count;
  out.sum = sum;
  if (count == 0) {
    // Match ToAggregateResult over an empty RunningStats bit for bit.
    out.min = std::numeric_limits<double>::infinity();
    out.max = -std::numeric_limits<double>::infinity();
    return out;
  }
  const double n = static_cast<double>(count);
  out.avg = sum / n;
  // int64 -> double rounding is monotonic, so taking extrema in the
  // integer domain first yields exactly the scalar path's double extrema.
  out.min = static_cast<double>(min);
  out.max = static_cast<double>(max);
  if (count >= 2) {
    const double var = sum_sq / n - out.avg * out.avg;
    out.variance = var > 0.0 ? var : 0.0;
  }
  return out;
}

VectorAggState AggregateValues(const std::vector<Value>& values) {
  VectorAggState agg;
  const uint64_t n = values.size();
  const Value* data = values.data();
  const uint64_t full = n / kLanesPerWord;
  for (uint64_t w = 0; w < full; ++w) {
    AccumulateDense64(data + w * kLanesPerWord, &agg);
  }
  for (uint64_t i = full * kLanesPerWord; i < n; ++i) {
    const Value v = data[i];
    const double dv = static_cast<double>(v);
    agg.sum += dv;
    agg.sum_sq += dv * dv;
    agg.min = std::min(agg.min, v);
    agg.max = std::max(agg.max, v);
    ++agg.count;
  }
  return agg;
}

namespace {

// The visibility input of the fused kernels: nullptr under kAll, else the
// morsel's active words (the kernels invert them under kForgottenOnly).
const uint64_t* FusedVisibilityWords(const Table& table, Visibility visibility,
                                     Morsel morsel, VectorScanContext* ctx) {
  if (visibility == Visibility::kAll) return nullptr;
  ctx->visibility_words.resize((morsel.size() + kLanesPerWord - 1) /
                               kLanesPerWord);
  table.active_bitmap().ExtractWords(morsel.begin, morsel.end,
                                     ctx->visibility_words.data());
  return ctx->visibility_words.data();
}

// The skip check of the live-list kernels: an empty slice is a morsel
// with no live row, skipped under the same SkipsWholesale rule. Notes the
// skip, or the slice as the rows scanned.
bool SkipLiveSlice(LiveCandidates::Slice slice, Morsel morsel) {
  if (SkipsWholesale(Visibility::kActiveOnly, slice.size(), morsel.size())) {
    NoteMorselSkipped();
    return true;
  }
  NoteMorselScanned(slice.size());
  return false;
}

}  // namespace

uint64_t CountMorselVectorized(const Table& table, const RangePredicate& pred,
                               Visibility visibility, Morsel morsel,
                               VectorScanContext* ctx) {
  if (SkipMorsel(table, visibility, morsel)) return 0;
  NoteMorselScanned(morsel.size());
  if (pred.Empty()) return 0;
  const ValueSpan slice = table.column(pred.col).span(morsel.begin, morsel.end);
  return FusedCountRange(slice.data, slice.size,
                         static_cast<uint64_t>(pred.lo), pred.UnsignedSpan(),
                         FusedVisibilityWords(table, visibility, morsel, ctx),
                         visibility == Visibility::kForgottenOnly);
}

void ScanMorselVectorized(const Table& table, const RangePredicate& pred,
                          Visibility visibility, Morsel morsel,
                          VectorScanContext* ctx, ResultSet* out) {
  if (SkipMorsel(table, visibility, morsel)) return;
  NoteMorselScanned(morsel.size());
  if (pred.Empty()) return;
  const ValueSpan slice = table.column(pred.col).span(morsel.begin, morsel.end);
  const RowId first = morsel.begin;
  FusedScanRange(slice.data, slice.size, static_cast<uint64_t>(pred.lo),
                 pred.UnsignedSpan(),
                 FusedVisibilityWords(table, visibility, morsel, ctx),
                 visibility == Visibility::kForgottenOnly,
                 [first](uint64_t lane) { return first + lane; }, out);
}

VectorAggState AggregateMorselVectorized(const Table& table,
                                         const RangePredicate& pred,
                                         Visibility visibility, Morsel morsel,
                                         VectorScanContext* ctx) {
  VectorAggState agg;
  if (SkipMorsel(table, visibility, morsel)) return agg;
  NoteMorselScanned(morsel.size());
  if (pred.Empty()) return agg;
  const ValueSpan slice = table.column(pred.col).span(morsel.begin, morsel.end);
  FusedAggregateRange(slice.data, slice.size, static_cast<uint64_t>(pred.lo),
                      pred.UnsignedSpan(),
                      FusedVisibilityWords(table, visibility, morsel, ctx),
                      visibility == Visibility::kForgottenOnly, &agg);
  return agg;
}

uint64_t CountLiveVectorized(const LiveCandidates& live,
                             const RangePredicate& pred, Morsel morsel) {
  const LiveCandidates::Slice slice = live.SliceOf(morsel.begin, morsel.end);
  if (SkipLiveSlice(slice, morsel) || pred.Empty()) return 0;
  return FusedCountRange(live.values(pred.col) + slice.lo, slice.size(),
                         static_cast<uint64_t>(pred.lo), pred.UnsignedSpan(),
                         /*vis=*/nullptr, /*invert=*/false);
}

void ScanLiveVectorized(const LiveCandidates& live, const RangePredicate& pred,
                        Morsel morsel, ResultSet* out) {
  const LiveCandidates::Slice slice = live.SliceOf(morsel.begin, morsel.end);
  if (SkipLiveSlice(slice, morsel) || pred.Empty()) return;
  const Value* values = live.values(pred.col);
  live.ForEachRun(slice, [&](uint64_t lo, uint64_t hi, RowId base) {
    FusedScanRange(
        values + lo, hi - lo, static_cast<uint64_t>(pred.lo),
        pred.UnsignedSpan(), /*vis=*/nullptr, /*invert=*/false,
        [&live, lo, base](uint64_t i) { return base + live.offset(lo + i); },
        out);
  });
}

VectorScanContext& ThreadLocalScanContext() {
  thread_local VectorScanContext ctx;
  return ctx;
}

}  // namespace amnesia
