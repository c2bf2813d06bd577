#include "obs/coverage.hpp"

#include <algorithm>
#include <utility>

namespace blunt::obs {

namespace {

constexpr std::size_t kInitialSlots = 64;  // power of two
constexpr const char* kHexDigits = "0123456789abcdef";

}  // namespace

std::string fingerprint_to_hex(std::uint64_t fp) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHexDigits[fp & 0xf];
    fp >>= 4;
  }
  return out;
}

bool CoverageMap::contains(std::uint64_t fp) const {
  if (fp == 0) return has_zero_;
  if (slots_.empty()) return false;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(mix_slot(fp)) & mask;
  while (slots_[i] != 0) {
    if (slots_[i] == fp) return true;
    i = (i + 1) & mask;
  }
  return false;
}

void CoverageMap::grow() {
  rehash_to(slots_.empty() ? kInitialSlots : slots_.size() * 2);
}

void CoverageMap::rehash_to(std::size_t new_slots) {
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(new_slots, 0);
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint64_t fp : old) {
    if (fp == 0) continue;
    std::size_t i = static_cast<std::size_t>(mix_slot(fp)) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = fp;
  }
}

void CoverageMap::reserve(std::int64_t expected) {
  std::size_t want = kInitialSlots;
  while (static_cast<std::size_t>(expected) * 10 >= want * 7) want *= 2;
  if (want > slots_.size()) rehash_to(want);
}

void CoverageMap::merge(const CoverageMap& other) {
  if (other.has_zero_) has_zero_ = true;
  for (const std::uint64_t fp : other.slots_) {
    if (fp != 0) insert(fp);
  }
}

std::vector<std::uint64_t> CoverageMap::sorted() const {
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(size()));
  if (has_zero_) out.push_back(0);
  for (const std::uint64_t fp : slots_) {
    if (fp != 0) out.push_back(fp);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Json CoverageMap::to_json() const {
  JsonArray a;
  for (const std::uint64_t fp : sorted()) {
    a.emplace_back(fingerprint_to_hex(fp));
  }
  return Json(std::move(a));
}

}  // namespace blunt::obs
