// Deterministic, splittable random number generation.
//
// Every experiment case derives its own independent stream from
// (master seed, case id), so results are bit-identical regardless of how
// cases are distributed over worker threads. The engine is xoshiro256**,
// seeded through SplitMix64 as its authors recommend; both are implemented
// here so the library has no dependency on unspecified std::mt19937 state
// layouts across standard libraries.
#ifndef AHEFT_SUPPORT_RNG_H_
#define AHEFT_SUPPORT_RNG_H_

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace aheft {

/// SplitMix64: tiny 64-bit generator used for seeding and for hashing
/// (seed, tag) pairs into substream seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — a fast, high-quality 64-bit PRNG.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

 private:
  std::uint64_t s_[4];
};

/// A convenience wrapper offering the distributions the generators and the
/// experiment harness need. All draws are deterministic functions of the
/// seed and the draw sequence.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derives an independent child stream from this stream's seed and a tag.
  /// Children do not consume entropy from the parent, so the parent's draw
  /// sequence is unaffected by how many children are created.
  [[nodiscard]] RngStream child(std::uint64_t tag) const;
  [[nodiscard]] RngStream child(std::string_view tag) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform real in [0, 1).
  double uniform01();
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Uniform index in [0, n).
  std::size_t index(std::size_t n);
  /// Bernoulli draw.
  bool bernoulli(double p);
  /// Truncated-at-zero normal draw (Box–Muller), used by noise models.
  double normal(double mean, double stddev);
  /// Exponential with the given mean.
  double exponential(double mean);
  /// Log-normal: exp of a N(mu, sigma^2) draw (mu/sigma on the log scale).
  double log_normal(double mu, double sigma);
  /// Weibull with the given shape and scale (CDF 1 - exp(-(x/scale)^shape)).
  double weibull(double shape, double scale);
  /// Geometric number of trials until the first success, in {1, 2, ...};
  /// mean 1/p. p must lie in (0, 1].
  std::size_t geometric(double p);

  /// Picks a uniformly random element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[index(items.size())];
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    if (items.empty()) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      std::swap(items[i], items[index(i + 1)]);
    }
  }

  std::uint64_t next_u64() { return engine_(); }

 private:
  Xoshiro256 engine_;
  std::uint64_t seed_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// The first draw of RngStream(seed).uniform(lo, hi), bit for bit, without
/// building the stream: xoshiro256**'s first output reads only the second
/// word SplitMix64 seeds it with. For callers that seed one stream per
/// value (one cost cell per (job, machine)).
[[nodiscard]] double first_uniform(std::uint64_t seed, double lo, double hi);

/// Stable 64-bit hash of a string, for deriving stream tags from names.
[[nodiscard]] std::uint64_t hash64(std::string_view text) noexcept;

/// Mixes two 64-bit values into one (used for (seed, tag) -> child seed).
[[nodiscard]] std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept;

}  // namespace aheft

#endif  // AHEFT_SUPPORT_RNG_H_
