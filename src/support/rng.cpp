#include "support/rng.h"

#include <cmath>
#include <numbers>

#include "support/assert.h"

namespace aheft {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// xoshiro256**'s output function: reads only the state's second word.
constexpr std::uint64_t scramble(std::uint64_t s1) noexcept {
  return rotl(s1 * 5, 7) * 9;
}

/// The top 53 bits of a draw as a uniform double in [0, 1).
constexpr double unit_interval(std::uint64_t draw) noexcept {
  return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) {
    word = sm.next();
  }
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = scramble(s_[1]);
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

RngStream RngStream::child(std::uint64_t tag) const {
  return RngStream(mix64(seed_, tag));
}

RngStream RngStream::child(std::string_view tag) const {
  return child(hash64(tag));
}

double RngStream::uniform01() {
  return unit_interval(engine_());
}

double RngStream::uniform(double lo, double hi) {
  AHEFT_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform01();
}

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  AHEFT_REQUIRE(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(engine_());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = Xoshiro256::max() - Xoshiro256::max() % span;
  std::uint64_t draw = engine_();
  while (draw >= limit) {
    draw = engine_();
  }
  return lo + static_cast<std::int64_t>(draw % span);
}

std::size_t RngStream::index(std::size_t n) {
  AHEFT_REQUIRE(n > 0, "index(n) requires n > 0");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

bool RngStream::bernoulli(double p) {
  return uniform01() < p;
}

double RngStream::normal(double mean, double stddev) {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  // Box–Muller transform.
  double u1 = uniform01();
  while (u1 <= 0.0) {
    u1 = uniform01();
  }
  const double u2 = uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  have_cached_normal_ = true;
  return mean + stddev * radius * std::cos(angle);
}

double RngStream::exponential(double mean) {
  AHEFT_REQUIRE(mean > 0.0, "exponential mean must be positive");
  double u = uniform01();
  while (u <= 0.0) {
    u = uniform01();
  }
  return -mean * std::log(u);
}

double RngStream::log_normal(double mu, double sigma) {
  AHEFT_REQUIRE(sigma >= 0.0, "log_normal sigma must be non-negative");
  return std::exp(normal(mu, sigma));
}

double RngStream::weibull(double shape, double scale) {
  AHEFT_REQUIRE(shape > 0.0 && scale > 0.0,
                "weibull shape and scale must be positive");
  double u = uniform01();
  while (u <= 0.0) {
    u = uniform01();
  }
  // -log(u) is a unit exponential; raising to 1/shape Weibull-izes it.
  return scale * std::pow(-std::log(u), 1.0 / shape);
}

std::size_t RngStream::geometric(double p) {
  AHEFT_REQUIRE(p > 0.0 && p <= 1.0, "geometric p must lie in (0, 1]");
  if (p == 1.0) {
    return 1;
  }
  double u = uniform01();
  while (u <= 0.0) {
    u = uniform01();
  }
  // Inversion: ceil(log(u) / log(1 - p)) trials, at least one.
  const double trials = std::ceil(std::log(u) / std::log1p(-p));
  return trials < 1.0 ? 1 : static_cast<std::size_t>(trials);
}

double first_uniform(std::uint64_t seed, double lo, double hi) {
  AHEFT_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  // Xoshiro256 seeds s_[0..3] from consecutive SplitMix64 outputs; its
  // first draw scrambles s_[1], the second of them.
  SplitMix64 sm(seed);
  (void)sm.next();
  return lo + (hi - lo) * unit_interval(scramble(sm.next()));
}

std::uint64_t hash64(std::string_view text) noexcept {
  // FNV-1a, then strengthened through SplitMix64 finalization.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return SplitMix64(h).next();
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
  SplitMix64 sm(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
  return sm.next();
}

}  // namespace aheft
