#include "workload/nexmark.hpp"

#include <charconv>
#include <system_error>

#include "common/status.hpp"
#include "common/strings.hpp"

namespace dsps::workload {

std::string Bid::to_line() const {
  std::string line;
  line.reserve(48);
  line += std::to_string(auction);
  line += ',';
  line += std::to_string(bidder);
  line += ',';
  line += std::to_string(price);
  line += ',';
  line += std::to_string(date_time);
  return line;
}

Bid Bid::from_line(std::string_view line) {
  const auto fields = split_views(line, ',');
  require(fields.size() == 4, "malformed bid line");
  const auto parse_i64 = [](std::string_view field) {
    std::int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(field.data(), field.data() + field.size(), value);
    require(ec == std::errc{} && ptr == field.data() + field.size(),
            "malformed bid field");
    return value;
  };
  return Bid{.auction = parse_i64(fields[0]),
             .bidder = parse_i64(fields[1]),
             .price = parse_i64(fields[2]),
             .date_time = parse_i64(fields[3])};
}

NexmarkGenerator::NexmarkGenerator(NexmarkConfig config)
    : config_(std::move(config)) {
  require(config_.bid_count > 0, "bid_count must be positive");
  require(config_.auctions > 0 && config_.bidders > 0,
          "auctions and bidders must be positive");
}

Bid NexmarkGenerator::bid_at(std::uint64_t index) const {
  Xoshiro256 rng(config_.seed ^ (index * 0x2545F4914F6CDD1DULL + 11));
  // Named draws pin the draw order; the operands of one arithmetic
  // expression would be evaluated in an order the compiler picks.
  const auto auction = static_cast<std::int64_t>(
      rng.next_below(static_cast<std::uint64_t>(config_.auctions)));
  const auto bidder = static_cast<std::int64_t>(
      rng.next_below(static_cast<std::uint64_t>(config_.bidders)));
  // Hot-item skew: a quadratic ramp makes some prices much larger.
  const auto base = static_cast<std::int64_t>(rng.next_below(10'000));
  const auto ramp_a = static_cast<std::int64_t>(rng.next_below(100));
  const auto ramp_b = static_cast<std::int64_t>(rng.next_below(100));
  return Bid{
      .auction = auction,
      .bidder = bidder,
      .price = 100 + base + ramp_a * ramp_b,
      .date_time =
          static_cast<std::int64_t>(index) * config_.inter_event_us,
  };
}

std::vector<Bid> NexmarkGenerator::all_bids() const {
  std::vector<Bid> bids;
  bids.reserve(config_.bid_count);
  for (std::uint64_t i = 0; i < config_.bid_count; ++i) {
    bids.push_back(bid_at(i));
  }
  return bids;
}

std::vector<std::string> NexmarkGenerator::all_lines() const {
  std::vector<std::string> lines;
  lines.reserve(config_.bid_count);
  for (std::uint64_t i = 0; i < config_.bid_count; ++i) {
    lines.push_back(bid_at(i).to_line());
  }
  return lines;
}

}  // namespace dsps::workload
