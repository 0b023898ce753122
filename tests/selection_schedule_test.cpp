// Pins the exact schedules of distributed selection, single-rank
// (select_rank) and batched (select_ranks), over a (shape, p, k) grid on
// both engines. Each input holds n = 3p + seed distinct values.
//
// A rank row runs select_rank for d in {1, n/4 + 1, ceil(n/2), n} and
// folds the four runs: value, cycles, messages, per-processor / per-channel
// counts, the cycle-by-cycle trace, proc_resumes, filter_phases, and a
// `trail` fingerprint of candidates_per_phase plus the full phase list
// (names, first cycles, cycles, messages). A batch row does the same for
// three select_ranks batches — clustered, spread with duplicates, and
// straddling the median — with `trail` left 0. Any change to who acts in
// which cycle, on which channel, with which payload shows up here.
//
// A row that is missing or differs reports the measured row in table
// syntax, so a deliberate schedule change regenerates the table from the
// failure output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "algo/multi_select.hpp"
#include "algo/selection.hpp"
#include "schedule_fingerprint.hpp"
#include "util/workload.hpp"

namespace mcb::algo {
namespace {

using mcb::fingerprint::counts_fingerprint;
using mcb::fingerprint::Fnv;
using mcb::fingerprint::TraceFingerprint;

enum class Entry { kRank, kBatch };

/// One pinned row. cycles, messages, resumes and filter_phases are sums
/// over the row's runs; the other fields fold each run's value into one
/// FNV-1a.
struct Pinned {
  util::Shape shape;
  std::size_t p, k;
  Entry entry;
  std::uint64_t values, cycles, messages, counts, trace, resumes,
      filter_phases, trail;
};

std::size_t input_seed(util::Shape shape, std::size_t k) {
  return k + static_cast<std::size_t>(shape);
}

std::size_t input_n(util::Shape shape, std::size_t p, std::size_t k) {
  return 3 * p + input_seed(shape, k);
}

std::vector<std::vector<std::size_t>> batches(std::size_t n) {
  const std::size_t c = n / 3, m = (n + 1) / 2;
  return {
      {c, c + 1, c + 2},                // clustered
      {n, 1, m, 1, n / 4 + 1, n},       // spread, with duplicates
      {m - 2, m + 2, m},                // straddling the median
  };
}

void fold_stats(Pinned& row, Fnv& counts, Fnv& trace, const RunStats& s,
                const TraceFingerprint& t) {
  row.cycles += s.cycles;
  row.messages += s.messages;
  row.resumes += s.proc_resumes;
  counts.add(counts_fingerprint(s));
  trace.add(t.value());
}

Pinned measure(util::Shape shape, std::size_t p, std::size_t k, Entry entry,
               Engine engine) {
  const std::size_t n = input_n(shape, p, k);
  const auto w = util::make_workload(n, p, shape, input_seed(shape, k));
  const SimConfig cfg{.p = p, .k = k, .engine = engine};
  Pinned row{shape, p, k, entry, 0, 0, 0, 0, 0, 0, 0, 0};
  Fnv values, counts, trace, trail;
  if (entry == Entry::kRank) {
    for (std::size_t d : {std::size_t{1}, n / 4 + 1, (n + 1) / 2, n}) {
      TraceFingerprint t;
      const auto res = select_rank(cfg, w.inputs, d, {}, &t);
      values.add(static_cast<std::uint64_t>(res.value));
      fold_stats(row, counts, trace, res.stats, t);
      row.filter_phases += res.filter_phases;
      for (std::size_t m : res.candidates_per_phase) trail.add(m);
      trail.add(~std::uint64_t{0});
      for (const PhaseStats& ph : res.stats.phases) {
        for (char c : ph.name) trail.add(static_cast<std::uint64_t>(c));
        trail.add(ph.first_cycle);
        trail.add(ph.cycles);
        trail.add(ph.messages);
      }
      trail.add(~std::uint64_t{0});
    }
    row.trail = trail.h;
  } else {
    for (const auto& ds : batches(n)) {
      TraceFingerprint t;
      const auto res = select_ranks(cfg, w.inputs, ds, {}, &t);
      for (Word v : res.values) values.add(static_cast<std::uint64_t>(v));
      values.add(~std::uint64_t{0});
      fold_stats(row, counts, trace, res.stats, t);
      row.filter_phases += res.filter_phases;
    }
  }
  row.values = values.h;
  row.counts = counts.h;
  row.trace = trace.h;
  return row;
}

std::string row_text(const Pinned& r) {
  static const char* const kShape[] = {"kEven", "kZipf", "kOneHot",
                                       "kRandom", "kStaircase"};
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "{util::Shape::%s, %zu, %zu, Entry::%s, 0x%016llxull, %llu, %llu, "
      "0x%016llxull, 0x%016llxull, %llu, %llu, 0x%016llxull},",
      kShape[static_cast<int>(r.shape)], r.p, r.k,
      r.entry == Entry::kRank ? "kRank" : "kBatch",
      static_cast<unsigned long long>(r.values),
      static_cast<unsigned long long>(r.cycles),
      static_cast<unsigned long long>(r.messages),
      static_cast<unsigned long long>(r.counts),
      static_cast<unsigned long long>(r.trace),
      static_cast<unsigned long long>(r.resumes),
      static_cast<unsigned long long>(r.filter_phases),
      static_cast<unsigned long long>(r.trail));
  return buf;
}

const std::size_t kPs[] = {2, 3, 8, 16, 37, 64, 257};
const std::size_t kKs[] = {1, 2, 4, 8};

// Generated from the implementation with separate single-rank and
// batched selection programs.
const Pinned kPinnedSchedules[] = {
    {util::Shape::kRandom, 2, 1, Entry::kRank, 0x7ce62e3a23e9d8d0ull, 120, 120,
     0x493effb13a2053e9ull, 0x92001150618ef247ull, 211, 8,
     0x5943bf9b36035ac5ull},
    {util::Shape::kRandom, 2, 1, Entry::kBatch, 0xf24478c016292ae8ull, 146, 146,
     0x03169fd655eb6263ull, 0x1d8cbfe29913d52full, 253, 10,
     0x0000000000000000ull},
    {util::Shape::kRandom, 2, 2, Entry::kRank, 0xba8f463055998870ull, 197, 245,
     0xe59af6e959b5cafdull, 0x5c3f5961afa7e8dcull, 353, 12,
     0x41c7276a40649937ull},
    {util::Shape::kRandom, 2, 2, Entry::kBatch, 0x57fde634e19b50eaull, 219, 271,
     0xa69aac8ac3b502b1ull, 0xbbf1522b6e411953ull, 389, 13,
     0x0000000000000000ull},
    {util::Shape::kRandom, 3, 1, Entry::kRank, 0xbd5a2c20ed4e81b4ull, 297, 241,
     0xb75f206c4935d5d1ull, 0xcc37a9143ad842d4ull, 489, 10,
     0x84ba04f3dc734da7ull},
    {util::Shape::kRandom, 3, 1, Entry::kBatch, 0x4136e1e46d148128ull, 355, 289,
     0x0ba11fba79ce7a8bull, 0xede470ff661db88aull, 580, 11,
     0x0000000000000000ull},
    {util::Shape::kRandom, 3, 2, Entry::kRank, 0x39ba64e6fd5d9581ull, 262, 262,
     0xe08ba4d55cbb4838ull, 0x78c70ffd5b8c6e22ull, 526, 12,
     0xfda7d2bd28cef12aull},
    {util::Shape::kRandom, 3, 2, Entry::kBatch, 0x3af3172a887ebcd6ull, 354, 354,
     0x2c24f1046d59be40ull, 0x80d2cd27a4802bfdull, 704, 16,
     0x0000000000000000ull},
    {util::Shape::kRandom, 8, 1, Entry::kRank, 0x06a581b34c82cc16ull, 506, 506,
     0x948f3af840690596ull, 0x328573a04ceab0e9ull, 1050, 7,
     0xf52b946334c67e05ull},
    {util::Shape::kRandom, 8, 1, Entry::kBatch, 0x0a9e0d2ce4620511ull, 616, 616,
     0xe3642da03e9c24c2ull, 0x407c6118abfcba87ull, 1255, 8,
     0x0000000000000000ull},
    {util::Shape::kRandom, 8, 2, Entry::kRank, 0x1ecb253b1f2310b8ull, 544, 964,
     0x2119ea7152139806ull, 0xa9e5903d1d962f65ull, 1782, 12,
     0x04a8a965c7bbeaadull},
    {util::Shape::kRandom, 8, 2, Entry::kBatch, 0x5cf2a4668fdb426dull, 702,
     1233, 0xb1b84e7b00788f19ull, 0x5617097aa52cd03dull, 2283, 15,
     0x0000000000000000ull},
    {util::Shape::kRandom, 8, 4, Entry::kRank, 0xdd470927f7ecc31full, 533, 1079,
     0x593a6b5698f19044ull, 0x93c1cf24b2be8c8full, 1968, 14,
     0x7608f10db4c2f8d5ull},
    {util::Shape::kRandom, 8, 4, Entry::kBatch, 0xdfe56eb5dae924e2ull, 656,
     1323, 0x643051869d4893e2ull, 0xcc6cf57f27a1c493ull, 2416, 17,
     0x0000000000000000ull},
    {util::Shape::kRandom, 8, 8, Entry::kRank, 0x439e7410b711e4d2ull, 624, 1267,
     0x1f2217df4e305584ull, 0x34934b1b73e27786ull, 2274, 17,
     0xa37dc0edd8ce021aull},
    {util::Shape::kRandom, 8, 8, Entry::kBatch, 0x65262c74f06a5ad4ull, 959,
     1941, 0xabaa37d1493a0ed5ull, 0xd2dc27fb553fa7d3ull, 3476, 26,
     0x0000000000000000ull},
    {util::Shape::kRandom, 16, 1, Entry::kRank, 0x64bf52e490c2dfd0ull, 1135,
     1135, 0x501d0abd25ba52c5ull, 0x70ea42729dc16ecfull, 2404, 8,
     0xe2ea12f2948ed4a2ull},
    {util::Shape::kRandom, 16, 1, Entry::kBatch, 0xa98b4851dc9055f8ull, 1349,
     1349, 0x10d9feeb2a6bf970ull, 0xf80667c0e4d129dcull, 2838, 9,
     0x0000000000000000ull},
    {util::Shape::kRandom, 16, 2, Entry::kRank, 0x3fa581390cc745aaull, 1028,
     1930, 0xcf3dc09134ae28c7ull, 0xff95a550f4d7dac9ull, 3517, 12,
     0xf1904cad0fb69858ull},
    {util::Shape::kRandom, 16, 2, Entry::kBatch, 0xbb99de62c4dc59bbull, 1208,
     2258, 0x592abb26c2090fbaull, 0x3e6bfc3c4e85f32aull, 4096, 14,
     0x0000000000000000ull},
    {util::Shape::kRandom, 16, 4, Entry::kRank, 0x29707227423f304dull, 1031,
     2376, 0x67a2f2d3f4b6c330ull, 0xd692846393b80868ull, 4319, 15,
     0x6616cc9f165a3832ull},
    {util::Shape::kRandom, 16, 4, Entry::kBatch, 0xe4c1ec1d88dc9683ull, 1328,
     3049, 0x76fde455611d1469ull, 0x5a223e78919fffbaull, 5562, 19,
     0x0000000000000000ull},
    {util::Shape::kRandom, 16, 8, Entry::kRank, 0x07ca72e72da3581cull, 929,
     2306, 0xc3afaee74e0ed272ull, 0xee8b55b34c4655daull, 4127, 15,
     0x27fa4e4ba35da85dull},
    {util::Shape::kRandom, 16, 8, Entry::kBatch, 0x1ecb5f859baa92beull, 1523,
     3752, 0x799a8c5913dca8a9ull, 0x681337316de7ca0bull, 6603, 25,
     0x0000000000000000ull},
    {util::Shape::kRandom, 37, 1, Entry::kRank, 0xf9bb97fc166a70c2ull, 4402,
     2998, 0x4efb66a4578f05c0ull, 0xef5f1399b5f22360ull, 6511, 9,
     0xe7d45b05fb011fddull},
    {util::Shape::kRandom, 37, 1, Entry::kBatch, 0x88136a61f35b4fb1ull, 4227,
     2877, 0xc11b2a4fc462d3c0ull, 0x80d55478089bb118ull, 6256, 8,
     0x0000000000000000ull},
    {util::Shape::kRandom, 37, 2, Entry::kRank, 0x6199a022237886ccull, 3400,
     3648, 0x5f1a97378a421a70ull, 0x55de71db5c880d20ull, 7818, 12,
     0x119946a795b844aeull},
    {util::Shape::kRandom, 37, 2, Entry::kBatch, 0x83d8b5e15c1642a2ull, 3819,
     4099, 0x126261234301310full, 0x6ad4d29e3df8c61bull, 8821, 13,
     0x0000000000000000ull},
    {util::Shape::kRandom, 37, 4, Entry::kRank, 0xee9bf50a27b1a64full, 3162,
     4644, 0xb674f17e89a79d16ull, 0x14c68dba80fba1fcull, 9861, 16,
     0x6457fc862ee2ee19ull},
    {util::Shape::kRandom, 37, 4, Entry::kBatch, 0x72136ae697da73fdull, 3579,
     5251, 0x348896fe0ab8c6d5ull, 0xc76421cef024488eull, 11133, 18,
     0x0000000000000000ull},
    {util::Shape::kRandom, 37, 8, Entry::kRank, 0x66c3fb7e54a9dcd4ull, 3067,
     5407, 0x82f5a5977fb4a369ull, 0xcd06eb81142d7443ull, 11409, 19,
     0x3ee9439fd48e3372ull},
    {util::Shape::kRandom, 37, 8, Entry::kBatch, 0xe4bc3544d5d362c9ull, 3887,
     6851, 0x9960f32b13c848fcull, 0xe071c636d2ecdf39ull, 14454, 24,
     0x0000000000000000ull},
    {util::Shape::kRandom, 64, 1, Entry::kRank, 0x6efbdb8fcd5a6df9ull, 5194,
     5194, 0x5aba7988fd4f5001ull, 0x99f60ac0154cf01dull, 11154, 9,
     0xf5466c328b457861ull},
    {util::Shape::kRandom, 64, 1, Entry::kBatch, 0xb1eb5b0791fc6a76ull, 4969,
     4969, 0x26e3a91e27b7acbfull, 0xe72f85f0ce22a00dull, 10711, 8,
     0x0000000000000000ull},
    {util::Shape::kRandom, 64, 2, Entry::kRank, 0x28c399a68ee9a407ull, 4379,
     8554, 0x8bcb91f240328e49ull, 0xbc9ba902751385b7ull, 15569, 13,
     0x51797351470b9ff7ull},
    {util::Shape::kRandom, 64, 2, Entry::kBatch, 0x57262ef8acea97daull, 4788,
     9308, 0x0ced5f0550fef5b2ull, 0xb553fd3d82b406f9ull, 16949, 14,
     0x0000000000000000ull},
    {util::Shape::kRandom, 64, 4, Entry::kRank, 0x599a98c73bf9a4dcull, 2863,
     10687, 0x56fd1a43eafd8864ull, 0x91c3be510c648a2eull, 18513, 16,
     0xb936143e5a7c572bull},
    {util::Shape::kRandom, 64, 4, Entry::kBatch, 0xa87db8279b58aafdull, 3400,
     12645, 0x0fe0b0a626f7f26eull, 0x811ed39491c0703eull, 21808, 19,
     0x0000000000000000ull},
    {util::Shape::kRandom, 64, 8, Entry::kRank, 0x6fedbd3da83e4271ull, 2797,
     13065, 0x2ee417081d1b91b8ull, 0x012f07342b4703a4ull, 22349, 20,
     0x90990f52c7c5d151ull},
    {util::Shape::kRandom, 64, 8, Entry::kBatch, 0x387a6532304e88d7ull, 3510,
     16345, 0x4f373e87529888caull, 0x6a4123789db3036eull, 27947, 25,
     0x0000000000000000ull},
    {util::Shape::kRandom, 257, 1, Entry::kRank, 0xcedb74396ba08a95ull, 31496,
     19256, 0xd500f7470bc29e6dull, 0xee1c8ef7ad7791d4ull, 41779, 8,
     0xa445cbc812f1bf9dull},
    {util::Shape::kRandom, 257, 1, Entry::kBatch, 0x8c172b10cd301463ull, 30080,
     18350, 0xf3ea48b94995122full, 0xd00466b33c3d9063ull, 39996, 7,
     0x0000000000000000ull},
    {util::Shape::kRandom, 257, 2, Entry::kRank, 0xf7c288caafc1bb23ull, 27769,
     27769, 0xb4900b73eb787d43ull, 0x277463baea1a4786ull, 59513, 13,
     0xdb8f0b14dbaf0e6cull},
    {util::Shape::kRandom, 257, 2, Entry::kBatch, 0xc8b92b2e093901c8ull, 30274,
     30274, 0xef36f887a0ffd6f5ull, 0xcd7b431c5334fb1bull, 64824, 14,
     0x0000000000000000ull},
    {util::Shape::kRandom, 257, 4, Entry::kRank, 0x699c3f111bea2278ull, 22902,
     33062, 0x94b5db4826481310ull, 0x6bd538e7ad35e341ull, 70256, 16,
     0x0e5195eceecaad09ull},
    {util::Shape::kRandom, 257, 4, Entry::kBatch, 0x8f15234254c40583ull, 27129,
     39067, 0x7c6aa48a21a84b43ull, 0xea490ac8cc6d4671ull, 82709, 19,
     0x0000000000000000ull},
    {util::Shape::kRandom, 257, 8, Entry::kRank, 0x674317360524a8bcull, 21901,
     40141, 0x60be827654e359ddull, 0x49c14bc028235875ull, 84577, 20,
     0x00fb888de7804a8cull},
    {util::Shape::kRandom, 257, 8, Entry::kBatch, 0xcdd4c27e43b9e140ull, 27272,
     49692, 0x82fd0cb25986c264ull, 0x9bff23b2759048eeull, 104199, 25,
     0x0000000000000000ull},
    {util::Shape::kZipf, 2, 1, Entry::kRank, 0xe39dc88501603f73ull, 112, 112,
     0x034bd139784ac3f2ull, 0xbafb00b093679554ull, 201, 7,
     0xe0ff56a1c0028b75ull},
    {util::Shape::kZipf, 2, 1, Entry::kBatch, 0x4340aec32c4a281full, 126, 126,
     0x980d6cdfa8c33712ull, 0x1b31c8405e072af8ull, 222, 8,
     0x0000000000000000ull},
    {util::Shape::kZipf, 2, 2, Entry::kRank, 0x4e675e92f38e9e13ull, 137, 169,
     0xbfa455e46dde9e90ull, 0x74c7fa139e0b4c2eull, 249, 8,
     0x19568ee4d0989fd8ull},
    {util::Shape::kZipf, 2, 2, Entry::kBatch, 0xb44d303938ec7076ull, 204, 252,
     0xc164288187f4b3e1ull, 0x85970e8869d9cf36ull, 365, 12,
     0x0000000000000000ull},
    {util::Shape::kZipf, 3, 1, Entry::kRank, 0xba8f463055998870ull, 221, 179,
     0x3462869fae64c150ull, 0x705eef93adc862e0ull, 362, 7,
     0x7ab0d9c276a69f1eull},
    {util::Shape::kZipf, 3, 1, Entry::kBatch, 0x57fde634e19b50eaull, 280, 228,
     0xa6d167bfcd5f13d3ull, 0xaa4c0569efb4e1faull, 453, 9,
     0x0000000000000000ull},
    {util::Shape::kZipf, 3, 2, Entry::kRank, 0xd3eba0ae1a1043e2ull, 276, 276,
     0xc7f7cc5ffbd8f52bull, 0x895c50e915a32502ull, 557, 12,
     0x49a9f79b9c0ccccfull},
    {util::Shape::kZipf, 3, 2, Entry::kBatch, 0x2e3428f21e6c39aaull, 401, 401,
     0xafb2a30dbe4e020full, 0x68fc03db12d2b232ull, 805, 17,
     0x0000000000000000ull},
    {util::Shape::kZipf, 8, 1, Entry::kRank, 0xc30e842d3b612564ull, 583, 583,
     0x3250b93254d09d1aull, 0x0f381782dde8ec72ull, 1199, 8,
     0x1dbe4b206bc790c0ull},
    {util::Shape::kZipf, 8, 1, Entry::kBatch, 0xbb2ca2a1ad85fac5ull, 542, 542,
     0x3d91c9d805df902bull, 0xc9753fe22497a578ull, 1099, 7,
     0x0000000000000000ull},
    {util::Shape::kZipf, 8, 2, Entry::kRank, 0x8d851c6c4ec86e14ull, 503, 892,
     0x253f270f5d698066ull, 0xc05d0fb1755d52dcull, 1659, 11,
     0xfc6d4b91413377f6ull},
    {util::Shape::kZipf, 8, 2, Entry::kBatch, 0x40b0e43c0422169cull, 699, 1230,
     0xc16b541ea191648aull, 0xa6a6784d77924cc8ull, 2273, 15,
     0x0000000000000000ull},
    {util::Shape::kZipf, 8, 4, Entry::kRank, 0x1ecb253b1f2310b8ull, 534, 1080,
     0x62f116eb56f0360dull, 0x3327cc288179a35bull, 1966, 14,
     0x6ed5b39ec9345d47ull},
    {util::Shape::kZipf, 8, 4, Entry::kBatch, 0x5cf2a4668fdb426dull, 668, 1343,
     0x20a0a9c8699983ceull, 0x87cf59c8314a1c48ull, 2461, 17,
     0x0000000000000000ull},
    {util::Shape::kZipf, 8, 8, Entry::kRank, 0x862d34f8032ff75dull, 599, 1215,
     0x32c43e91a2900aa2ull, 0x314453701fed68afull, 2200, 16,
     0x3a68215f37f304ecull},
    {util::Shape::kZipf, 8, 8, Entry::kBatch, 0xd41986622d05950cull, 866, 1751,
     0xff0d17f0b88a2430ull, 0x33d4a14287660019ull, 3165, 23,
     0x0000000000000000ull},
    {util::Shape::kZipf, 16, 1, Entry::kRank, 0x53109c54c2e0af0eull, 1279, 1279,
     0x28d01627b10ffe04ull, 0xffc058fc306a8e0eull, 2702, 9,
     0x0170bb8a9847e001ull},
    {util::Shape::kZipf, 16, 1, Entry::kBatch, 0x456a85281d738f08ull, 1335,
     1335, 0x8c828abfcdb3d75full, 0x522725729092f566ull, 2807, 9,
     0x0000000000000000ull},
    {util::Shape::kZipf, 16, 2, Entry::kRank, 0x468d8ba19403f1eaull, 783, 1470,
     0xbf124004f0a30e42ull, 0xbcbeddc9316daaa0ull, 2703, 9,
     0x315bc1e09cccb63full},
    {util::Shape::kZipf, 16, 2, Entry::kBatch, 0x214f832787e12679ull, 1139,
     2122, 0xe2f8607d49bba7f4ull, 0x97b96a0d4645ee5full, 3856, 13,
     0x0000000000000000ull},
    {util::Shape::kZipf, 16, 4, Entry::kRank, 0x3fa581390cc745aaull, 1019, 2344,
     0xfcff8d7225acef87ull, 0xdd5b21de26d3e555ull, 4221, 15,
     0xf49e62f008256a5full},
    {util::Shape::kZipf, 16, 4, Entry::kBatch, 0xbb99de62c4dc59bbull, 1436,
     3295, 0x2cf6698518fe046cull, 0xa2f53d9a5b0b23a8ull, 5933, 21,
     0x0000000000000000ull},
    {util::Shape::kZipf, 16, 8, Entry::kRank, 0x864231ef31420913ull, 1229, 3043,
     0x825786bca02f7e1dull, 0x7fd843be86000784ull, 5408, 20,
     0x4701f5d1b2387ee4ull},
    {util::Shape::kZipf, 16, 8, Entry::kBatch, 0x2c09be986b75e2deull, 1465,
     3611, 0x81c82b85afb371cfull, 0x5a81b5a6bff3dcceull, 6363, 24,
     0x0000000000000000ull},
    {util::Shape::kZipf, 37, 1, Entry::kRank, 0x43a6ea6946a5c901ull, 3529, 2395,
     0xaf2c6dc722a527baull, 0xff336a97f88f45f8ull, 5225, 7,
     0xdaa19cd2744da2fcull},
    {util::Shape::kZipf, 37, 1, Entry::kBatch, 0xfac8822bde687182ull, 4253,
     2903, 0x79b78edc813e683dull, 0xbf7cb07df8f5a6d4ull, 6231, 8,
     0x0000000000000000ull},
    {util::Shape::kZipf, 37, 2, Entry::kRank, 0x8f15b2daf28d21baull, 3466, 3722,
     0xee8db84622524a79ull, 0x26a61a5ce21e6aa7ull, 8027, 12,
     0x62ac378feb4898fcull},
    {util::Shape::kZipf, 37, 2, Entry::kBatch, 0x181b238e1923c1c5ull, 3801,
     4081, 0x362a034428af3b7eull, 0xad8726c58ddfcd2bull, 8781, 13,
     0x0000000000000000ull},
    {util::Shape::kZipf, 37, 4, Entry::kRank, 0x6199a022237886ccull, 3202, 4722,
     0x71ddcae6d363a8d7ull, 0x297a998445551e4eull, 10086, 16,
     0x813c610d3081bbd7ull},
    {util::Shape::kZipf, 37, 4, Entry::kBatch, 0x83d8b5e15c1642a2ull, 3796,
     5582, 0x0737f13238ae3907ull, 0xa5682cc07d2c85e4ull, 11871, 19,
     0x0000000000000000ull},
    {util::Shape::kZipf, 37, 8, Entry::kRank, 0x3ca91e6b154d035bull, 3244, 5740,
     0xa2cb1001458df8c3ull, 0x1046790430b7561eull, 12147, 20,
     0x52868a663b8aa19cull},
    {util::Shape::kZipf, 37, 8, Entry::kBatch, 0x0f7dc10317ca648dull, 4366,
     7694, 0x9810ef8fe57dc970ull, 0x94dcbdce3c2d8f84ull, 16225, 27,
     0x0000000000000000ull},
    {util::Shape::kZipf, 64, 1, Entry::kRank, 0x5746e174c6b3eccaull, 4779, 4779,
     0x33e6b487a71feadeull, 0x14a55b490571c521ull, 10241, 8,
     0xb93c7354e8ea8465ull},
    {util::Shape::kZipf, 64, 1, Entry::kBatch, 0xf7a64ac1b310d7c3ull, 4562,
     4562, 0xfebe4ab24e091093ull, 0x95fba05f6fd38cadull, 9781, 7,
     0x0000000000000000ull},
    {util::Shape::kZipf, 64, 2, Entry::kRank, 0xb19772f3544f2e93ull, 4085, 7977,
     0x0f691e52b7e84425ull, 0x6f62f9cf1052d67eull, 14592, 12,
     0x18a97bd73584a06dull},
    {util::Shape::kZipf, 64, 2, Entry::kBatch, 0x52d7837f8206f263ull, 4497,
     8734, 0xa8b43adcc0c25a3aull, 0x9f6160aa7e7bd209ull, 15966, 13,
     0x0000000000000000ull},
    {util::Shape::kZipf, 64, 4, Entry::kRank, 0x28c399a68ee9a407ull, 3011,
     11278, 0x4c05c2c14deccbe6ull, 0xdc3357a349eb0b7aull, 19462, 17,
     0x9a79c9162a9214ebull},
    {util::Shape::kZipf, 64, 4, Entry::kBatch, 0x57262ef8acea97daull, 3552,
     13240, 0x383e3e08e8680d9full, 0xa8508cd762fb78afull, 22755, 20,
     0x0000000000000000ull},
    {util::Shape::kZipf, 64, 8, Entry::kRank, 0xe40aeaf6f39b2adaull, 2642,
     12333, 0x1c7623fb2264af21ull, 0xa745232fda67def6ull, 20996, 19,
     0xbbd5833c1f2fb595ull},
    {util::Shape::kZipf, 64, 8, Entry::kBatch, 0x70508e39eede7ad7ull, 3203,
     14884, 0x68369347658b3f9bull, 0xf6fb34992891465eull, 25245, 23,
     0x0000000000000000ull},
    {util::Shape::kZipf, 257, 1, Entry::kRank, 0x6a3d0f56ae3081deull, 31494,
     19254, 0x917d8b2c159f7d09ull, 0x7f9c767794ff8bc3ull, 41576, 8,
     0x2351307bb6a3f739ull},
    {util::Shape::kZipf, 257, 1, Entry::kBatch, 0x839f0d27621d847cull, 30100,
     18370, 0x186bd371b9aba116ull, 0xbe0e8ba95e68a3f0ull, 39701, 7,
     0x0000000000000000ull},
    {util::Shape::kZipf, 257, 2, Entry::kRank, 0x33a72c12a2ef3cebull, 23638,
     23638, 0xacdc6aec92aa5e1bull, 0x21bc11527f87fbf6ull, 50636, 11,
     0x328d1a30cf28229bull},
    {util::Shape::kZipf, 257, 2, Entry::kBatch, 0x6f98ea6a64ae1709ull, 26165,
     26165, 0x2960831c2599630cull, 0xa1665cb0e7bec69aull, 55907, 12,
     0x0000000000000000ull},
    {util::Shape::kZipf, 257, 4, Entry::kRank, 0xf7c288caafc1bb23ull, 22907,
     33067, 0xb4649e44a3288b95ull, 0x3f540b0178a3a39cull, 70199, 16,
     0xb3c9a4a753a00107ull},
    {util::Shape::kZipf, 257, 4, Entry::kBatch, 0xc8b92b2e093901c8ull, 25839,
     37269, 0x23cccf633fc2da3eull, 0x65e23e89863324e6ull, 79014, 18,
     0x0000000000000000ull},
    {util::Shape::kZipf, 257, 8, Entry::kRank, 0xbdcbbd4236222b82ull, 22941,
     41941, 0x69599ad51b77eac0ull, 0x3a002c1b46b665eeull, 88163, 21,
     0x5fc6e173a28313dbull},
    {util::Shape::kZipf, 257, 8, Entry::kBatch, 0xe4203f59ab340129ull, 28305,
     51485, 0xc3249b14320b49c0ull, 0xfb914ea08a18a889ull, 107770, 26,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 2, 1, Entry::kRank, 0x4e675e92f38e9e13ull, 140, 140,
     0xe097ddddd8a85bf8ull, 0x4d80e378f0da6e39ull, 248, 9,
     0xb492275bb07dc36aull},
    {util::Shape::kOneHot, 2, 1, Entry::kBatch, 0xb44d303938ec7076ull, 186, 186,
     0x184decc9227d2871ull, 0xdd3419e9cfd3000full, 326, 11,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 2, 2, Entry::kRank, 0x7ce62e3a23e9d8d0ull, 172, 212,
     0x573cbd6f20a4c9b4ull, 0xe4685d43ced17271ull, 310, 10,
     0xd348b37f636642efull},
    {util::Shape::kOneHot, 2, 2, Entry::kBatch, 0xf24478c016292ae8ull, 219, 271,
     0xeff119d74570efadull, 0x2c77ca2f3bcac9a0ull, 389, 13,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 3, 1, Entry::kRank, 0xd3eba0ae1a1043e2ull, 219, 177,
     0x81aecd45a76b817cull, 0xab04f9d7833ae2f4ull, 361, 7,
     0x39d2c79e1339ea1aull},
    {util::Shape::kOneHot, 3, 1, Entry::kBatch, 0x2e3428f21e6c39aaull, 269, 219,
     0x93aaa37e06bacf0full, 0x8a63853f91ab52beull, 433, 8,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 3, 2, Entry::kRank, 0xbd5a2c20ed4e81b4ull, 224, 224,
     0x87ac96ed52e959c5ull, 0x1a2890cf9b556279ull, 454, 10,
     0x97b95497accf95edull},
    {util::Shape::kOneHot, 3, 2, Entry::kBatch, 0x4136e1e46d148128ull, 309, 309,
     0x477fa1c6943341bcull, 0x71f0129ac895a45dull, 615, 14,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 8, 1, Entry::kRank, 0x8d851c6c4ec86e14ull, 560, 560,
     0x991f384428a03bdeull, 0xb0ffa96c9cab80e3ull, 1150, 8,
     0xf8f96486def603e5ull},
    {util::Shape::kOneHot, 8, 1, Entry::kBatch, 0x40b0e43c0422169cull, 536, 536,
     0xfbf8eafff5311ee2ull, 0x5e958e3afaefa1b0ull, 1094, 7,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 8, 2, Entry::kRank, 0x06a581b34c82cc16ull, 567, 1012,
     0x179ca6bffe01da4aull, 0x775d6f997eeca149ull, 1846, 13,
     0x62339b319785dac9ull},
    {util::Shape::kOneHot, 8, 2, Entry::kBatch, 0x0a9e0d2ce4620511ull, 678,
     1197, 0xb63a4e1b0f701860ull, 0x1b1ff4df0599e96eull, 2179, 15,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 8, 4, Entry::kRank, 0xe6c93836bdec9b1dull, 576, 1165,
     0x234d331f58269e61ull, 0x99d2215b23a45916ull, 2128, 15,
     0x65f701680f8a010full},
    {util::Shape::kOneHot, 8, 4, Entry::kBatch, 0x9750ae64676adbccull, 769,
     1549, 0x973068d4ec094cc7ull, 0x7cc15472cdb82272ull, 2811, 20,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 8, 8, Entry::kRank, 0xe481d4b2ae5303a2ull, 667, 1353,
     0xc32c0412a46b7a7full, 0xc4e4347f1ea50b2bull, 2435, 18,
     0xe6eb3e53397e8fc3ull},
    {util::Shape::kOneHot, 8, 8, Entry::kBatch, 0x97919a09f0b7e256ull, 882,
     1786, 0xbb85835709248d30ull, 0xd80dcb7b437d801full, 3189, 24,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 16, 1, Entry::kRank, 0x468d8ba19403f1eaull, 1137,
     1137, 0xaf7870309191af2eull, 0x3a6eac49765f2235ull, 2387, 8,
     0xf5e110eac086dcc5ull},
    {util::Shape::kOneHot, 16, 1, Entry::kBatch, 0x214f832787e12679ull, 1238,
     1238, 0xc3fc42674169f7aaull, 0x2a4222ce25076046ull, 2583, 8,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 16, 2, Entry::kRank, 0x64bf52e490c2dfd0ull, 879,
     1647, 0xb4b3e77dd1775db4ull, 0xd5f1de42d229665cull, 3033, 10,
     0x4f90b10850ac6dd3ull},
    {util::Shape::kOneHot, 16, 2, Entry::kBatch, 0xa98b4851dc9055f8ull, 1230,
     2294, 0x96fede4abc2e6c99ull, 0xfe48812fe86251afull, 4177, 14,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 16, 4, Entry::kRank, 0xe67494e2a5dbd6b3ull, 1142,
     2625, 0x0d8dbfe3d396eaf3ull, 0x1ca92edc62197073ull, 4694, 17,
     0xdee546d9484213fcull},
    {util::Shape::kOneHot, 16, 4, Entry::kBatch, 0xbcae952ad55a7e26ull, 1433,
     3292, 0x215085ef6e3aab6eull, 0x0a980191cb01c537ull, 5928, 21,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 16, 8, Entry::kRank, 0x1e7cc4304d11bd70ull, 1057,
     2622, 0xb040d4a0fed16c12ull, 0x4746da5a642f8b61ull, 4693, 17,
     0xfedf4d87682ea6ecull},
    {util::Shape::kOneHot, 16, 8, Entry::kBatch, 0xed50b44703e4bd24ull, 1375,
     3399, 0xea466f8bd724d1d8ull, 0xe0fa119fcdfd9ff8ull, 6072, 22,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 37, 1, Entry::kRank, 0x8f15b2daf28d21baull, 3529,
     2395, 0x6e53076dc394e82aull, 0x99125802406024b7ull, 5209, 7,
     0xb1049cedbed86771ull},
    {util::Shape::kOneHot, 37, 1, Entry::kBatch, 0x181b238e1923c1c5ull, 4240,
     2890, 0x13bd198442973c2bull, 0x44b63922b9690600ull, 6204, 8,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 37, 2, Entry::kRank, 0xf9bb97fc166a70c2ull, 2912,
     3128, 0x33281fb90a832d2aull, 0x5e9aa28c1910148full, 6754, 10,
     0xc3c0a7e641fc169aull},
    {util::Shape::kOneHot, 37, 2, Entry::kBatch, 0x88136a61f35b4fb1ull, 4051,
     4347, 0x01c7c89b91370674ull, 0x32dd2ce0628aa95bull, 9287, 14,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 37, 4, Entry::kRank, 0xc66b53a56026eab2ull, 3206,
     4726, 0x8fa52bd0e3d5cdd2ull, 0x3e48376b0e7b6267ull, 10076, 16,
     0x6f4082a00f688f6cull},
    {util::Shape::kOneHot, 37, 4, Entry::kBatch, 0x05287fb464f3dcd1ull, 3623,
     5333, 0x3a37958fd2915359ull, 0x9ea3704b82b60359ull, 11341, 18,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 37, 8, Entry::kRank, 0x24fd9e83e1236d5bull, 2608,
     4636, 0x9149d81777aac5beull, 0xc66a103ba9c5d392ull, 9851, 16,
     0x96e374c75ed11b9full},
    {util::Shape::kOneHot, 37, 8, Entry::kBatch, 0x2c1f6f3725e81029ull, 4194,
     7366, 0x07e73c49fe8c0ca6ull, 0x1b390b08701361aeull, 15482, 26,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 64, 1, Entry::kRank, 0xb19772f3544f2e93ull, 4611,
     4611, 0xc1bd7485c67ebc93ull, 0x83cfe7fbd48a9d4full, 9821, 8,
     0x52cd9eda7dc448f1ull},
    {util::Shape::kOneHot, 64, 1, Entry::kBatch, 0x52d7837f8206f263ull, 4406,
     4406, 0xf10383a2cd0c3d08ull, 0xc62223d40f22c1b2ull, 9359, 7,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 64, 2, Entry::kRank, 0x6efbdb8fcd5a6df9ull, 4101,
     7993, 0xedd23f013f190e02ull, 0xefda58bd3372bdd3ull, 14575, 12,
     0x23a426ae3c2198d6ull},
    {util::Shape::kOneHot, 64, 2, Entry::kBatch, 0xb1eb5b0791fc6a76ull, 4607,
     8906, 0xac24d19170a577eaull, 0x2d088a7ee01a6efeull, 16330, 13,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 64, 4, Entry::kRank, 0x8c7bdbcf83128eceull, 3162,
     11872, 0x3f3729cbfe624a0dull, 0xbf36d652f142b11eull, 20408, 18,
     0xdc8837abf57dcd05ull},
    {util::Shape::kOneHot, 64, 4, Entry::kBatch, 0x3ced052382ad244bull, 3700,
     13831, 0xb5d9ec33fab52ec8ull, 0x5ffdf25c10ff0c51ull, 23693, 21,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 64, 8, Entry::kRank, 0xc3328e80e7c013edull, 2666,
     12463, 0x84ac98ea5dd8ac37ull, 0x0ef00913b29c24faull, 21365, 19,
     0x47c8291ee09bfb80ull},
    {util::Shape::kOneHot, 64, 8, Entry::kBatch, 0x580038bbeab328c1ull, 3645,
     16951, 0xed13de129da0de19ull, 0x3bc386853f1ad413ull, 28883, 26,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 257, 1, Entry::kRank, 0x33a72c12a2ef3cebull, 31514,
     19274, 0xf3c1021224d7c759ull, 0xee6eb29305407699ull, 41496, 8,
     0x93dc059558c8fe5cull},
    {util::Shape::kOneHot, 257, 1, Entry::kBatch, 0x6f98ea6a64ae1709ull, 28898,
     17678, 0xd9ed503f53eb44e4ull, 0xca2aaffd4ffed7ceull, 37956, 7,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 257, 2, Entry::kRank, 0xcedb74396ba08a95ull, 26066,
     26066, 0x4f161d87114430eeull, 0x25ffae0a52fb03a5ull, 55782, 12,
     0xdfb85b9963c40b23ull},
    {util::Shape::kOneHot, 257, 2, Entry::kBatch, 0x8c172b10cd301463ull, 26778,
     26778, 0xb6074d5e7e7c59ceull, 0x81691a2530e2f612ull, 57395, 12,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 257, 4, Entry::kRank, 0xf75e3b851ffcea87ull, 22880,
     33040, 0x9ea6f74f9694b380ull, 0x67ba59926844d548ull, 70123, 16,
     0x4a63411c7ca99912ull},
    {util::Shape::kOneHot, 257, 4, Entry::kBatch, 0x587190439e5eb0d5ull, 27112,
     39050, 0x73e68a76dde68ee4ull, 0x8f61ddd8b01a5da3ull, 82526, 19,
     0x0000000000000000ull},
    {util::Shape::kOneHot, 257, 8, Entry::kRank, 0x32617e17f6d29b6dull, 17591,
     32411, 0x9d36ce3dc08c9f2eull, 0xb85f9ae627ee57a0ull, 68539, 16,
     0x895a162fc24e2f6dull},
    {util::Shape::kOneHot, 257, 8, Entry::kBatch, 0x550dacc4b750d8beull, 27268,
     49688, 0xd638ce9fd8fe3489ull, 0x462df814c82da390ull, 104115, 25,
     0x0000000000000000ull},
};

TEST(SelectionSchedule, PinnedAcrossShapesAndEngines) {
  std::size_t checked = 0;
  for (util::Shape shape :
       {util::Shape::kRandom, util::Shape::kZipf, util::Shape::kOneHot}) {
    for (std::size_t p : kPs) {
      for (std::size_t k : kKs) {
        if (k > p) continue;
        for (Entry entry : {Entry::kRank, Entry::kBatch}) {
          const Pinned* want = nullptr;
          for (const Pinned& r : kPinnedSchedules) {
            if (r.shape == shape && r.p == p && r.k == k &&
                r.entry == entry) {
              want = &r;
            }
          }
          for (Engine e : {Engine::kEventDriven, Engine::kReference}) {
            const Pinned got = measure(shape, p, k, entry, e);
            const std::string label =
                std::string(e == Engine::kReference ? "reference" : "event") +
                " measured " + row_text(got);
            if (want == nullptr) {
              ADD_FAILURE() << "no pinned row; " << label;
              break;
            }
            EXPECT_EQ(got.values, want->values) << label;
            EXPECT_EQ(got.cycles, want->cycles) << label;
            EXPECT_EQ(got.messages, want->messages) << label;
            EXPECT_EQ(got.counts, want->counts) << label;
            EXPECT_EQ(got.trace, want->trace) << label;
            EXPECT_EQ(got.resumes, want->resumes) << label;
            EXPECT_EQ(got.filter_phases, want->filter_phases) << label;
            EXPECT_EQ(got.trail, want->trail) << label;
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kPinnedSchedules));
}

}  // namespace
}  // namespace mcb::algo
