#include "gf2/bitvec.hpp"

#include <algorithm>
#include <bit>

namespace radiocast::gf2 {

BitVec BitVec::from_bits(std::size_t size, const std::vector<std::size_t>& ones) {
  BitVec v(size);
  for (std::size_t i : ones) v.set(i, true);
  return v;
}

BitVec BitVec::random(std::size_t size, Rng& rng) {
  BitVec v(size);
  for (auto& word : v.words_) word = rng();
  v.trim();
  return v;
}

BitVec BitVec::bernoulli(std::size_t size, double p, Rng& rng) {
  BitVec v(size);
  for (std::size_t i = 0; i < size; ++i) v.set(i, rng.next_bool(p));
  return v;
}

BitVec BitVec::unit(std::size_t size, std::size_t i) {
  BitVec v(size);
  v.set(i, true);
  return v;
}

namespace {

/// Index one past the highest nonzero word (0 if all words are zero).
std::size_t nonzero_word_limit(const std::uint64_t* words, std::size_t n) {
  while (n > 0 && words[n - 1] == 0) --n;
  return n;
}

}  // namespace

BitVec& BitVec::operator^=(const BitVec& other) {
  RC_ASSERT(size_ == other.size_);
  xor_words(words_.data(), other.words_.data(), words_.size());
  return *this;
}

BitVec& BitVec::operator&=(const BitVec& other) {
  RC_ASSERT(size_ == other.size_);
  // Words past either operand's highest nonzero word contribute nothing;
  // clear ours and only combine the live prefix.
  const std::size_t limit =
      std::min(nonzero_word_limit(words_.data(), words_.size()),
               nonzero_word_limit(other.words_.data(), other.words_.size()));
  for (std::size_t w = limit; w < words_.size(); ++w) words_[w] = 0;
  for (std::size_t w = 0; w < limit; ++w) words_[w] &= other.words_[w];
  return *this;
}

bool BitVec::is_zero() const {
  for (std::uint64_t word : words_) {
    if (word != 0) return false;
  }
  return true;
}

std::size_t BitVec::popcount() const {
  const std::size_t limit = nonzero_word_limit(words_.data(), words_.size());
  std::size_t total = 0;
  for (std::size_t w = 0; w < limit; ++w) {
    total += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  return total;
}

std::optional<std::size_t> BitVec::find_single_bit() const {
  std::optional<std::size_t> found;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::uint64_t word = words_[w];
    if (word == 0) continue;
    if (found || (word & (word - 1)) != 0) return std::nullopt;  // >= 2 bits
    found = (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
  }
  return found;
}

std::size_t BitVec::lowest_set_bit() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return (w << 6) + static_cast<std::size_t>(std::countr_zero(words_[w]));
    }
  }
  return size_;
}

std::size_t BitVec::highest_set_bit() const {
  for (std::size_t w = words_.size(); w-- > 0;) {
    if (words_[w] != 0) {
      return (w << 6) + 63 - static_cast<std::size_t>(std::countl_zero(words_[w]));
    }
  }
  return size_;
}

std::vector<std::size_t> BitVec::ones() const {
  std::vector<std::size_t> out;
  out.reserve(popcount());
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    while (word != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(word));
      out.push_back((w << 6) + bit);
      word &= word - 1;
    }
  }
  return out;
}

bool BitVec::dot(const BitVec& other) const {
  RC_ASSERT(size_ == other.size_);
  std::uint64_t parity = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    parity ^= words_[w] & other.words_[w];
  }
  return (std::popcount(parity) & 1) != 0;
}

std::uint64_t BitVec::to_word() const {
  if (words_.empty()) return 0;
  std::uint64_t word = words_[0];
  if (size_ < 64) word &= (size_ == 0) ? 0 : ((~0ULL) >> (64 - size_));
  return word;
}

BitVec BitVec::from_word(std::size_t size, std::uint64_t word) {
  RC_ASSERT(size <= 64);
  BitVec v(size);
  if (size > 0) {
    v.words_[0] = word & ((size == 64) ? ~0ULL : ((1ULL << size) - 1));
  }
  return v;
}

std::string BitVec::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

void BitVec::trim() {
  const std::size_t extra = words_.size() * 64 - size_;
  if (extra > 0 && !words_.empty()) {
    words_.back() &= (~0ULL) >> extra;
  }
}

}  // namespace radiocast::gf2
