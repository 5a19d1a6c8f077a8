#include "workload/aol_generator.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"

namespace dsps::workload {

namespace {

constexpr std::uint64_t kNeedleResidue = 7;

// Vocabulary for query synthesis. None of these contain "test" as a
// substring ("contest", "protest", "latest" are deliberately absent), so
// needle occurrence is fully controlled by the generator.
constexpr std::array kWords = {
    "weather",  "lyrics",  "recipe",   "movie",   "hotel",   "flight",
    "games",    "news",    "pictures", "school",  "music",   "phone",
    "house",    "jobs",    "car",      "credit",  "dollar",  "health",
    "store",    "beach",   "county",   "city",    "map",     "code",
    "florida",  "texas",   "free",     "online",  "cheap",   "best",
    "york",     "sale",    "book",     "radio",   "tickets", "college",
};

constexpr std::array kDomains = {
    "example.com",   "search.net",   "shopping.org", "travelsite.com",
    "localnews.com", "bigstore.com", "questions.net", "photos.org",
};

/// Longest line without the needle: a 6-digit user id, four 8-letter words
/// and their separators, the 19-byte time, a 2-digit rank, the longest URL
/// and the tabs.
constexpr std::size_t kMaxLineBytesBeforeNeedle = 6 + 4 * 9 + 19 + 2 + 25 + 4;

/// The random draws behind one record.
struct Draw {
  std::uint64_t user_id = 0;
  std::uint64_t word_count = 0;
  std::array<std::uint64_t, 4> words{};  // indices into kWords
  bool needle = false;
  std::uint64_t month = 0, day = 0, hour = 0, minute = 0, second = 0;
  bool clicked = false;
  std::uint64_t rank = 0;
  std::uint64_t domain = 0;  // index into kDomains
};

Draw draw_record(const AolGenerator& generator, std::uint64_t index) {
  // A per-record generator keyed on (seed, index) makes records independent
  // of generation order.
  Xoshiro256 rng(generator.config().seed ^
                 (index * 0x9E3779B97F4A7C15ULL + 1));
  Draw draw;
  draw.user_id = 100000 + rng.next_below(900000);
  // 1-4 vocabulary words; the needle is injected deterministically.
  draw.word_count = 1 + rng.next_below(4);
  for (std::uint64_t w = 0; w < draw.word_count; ++w) {
    draw.words[w] = rng.next_below(kWords.size());
  }
  draw.needle = generator.is_grep_match(index);
  // AOL log timeframe: March–May 2006. The clock fields are drawn seconds
  // first, the order the generated datasets have always used.
  draw.second = rng.next_below(60);
  draw.minute = rng.next_below(60);
  draw.hour = rng.next_below(24);
  draw.day = 1 + rng.next_below(28);
  draw.month = 3 + rng.next_below(3);
  // Roughly half the records carry a clicked result.
  draw.clicked = rng.next_below(2) == 0;
  if (draw.clicked) {
    draw.rank = 1 + rng.next_below(10);
    draw.domain = rng.next_below(kDomains.size());
  }
  return draw;
}

void append_number(std::uint64_t value, std::string& out) {
  char digits[20];
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, result.ptr);
}

void append_two_digits(std::uint64_t value, std::string& out) {
  out += static_cast<char>('0' + value / 10);
  out += static_cast<char>('0' + value % 10);
}

void append_query(const Draw& draw, std::string_view needle,
                  std::string& out) {
  for (std::uint64_t w = 0; w < draw.word_count; ++w) {
    if (w > 0) out += ' ';
    out += kWords[draw.words[w]];
  }
  if (draw.needle) {
    out += ' ';
    out += needle;
  }
}

/// "2006-MM-DD hh:mm:ss"; every field is below 100.
void append_query_time(const Draw& draw, std::string& out) {
  out += "2006-";
  append_two_digits(draw.month, out);
  out += '-';
  append_two_digits(draw.day, out);
  out += ' ';
  append_two_digits(draw.hour, out);
  out += ':';
  append_two_digits(draw.minute, out);
  out += ':';
  append_two_digits(draw.second, out);
}

void append_click_url(const Draw& draw, std::string& out) {
  out += "http://www.";
  out += kDomains[draw.domain];
}

/// Appends the bytes of AolRecord::to_line() for `draw`.
void append_line(const Draw& draw, std::string_view needle,
                 std::string& out) {
  append_number(draw.user_id, out);
  out += '\t';
  append_query(draw, needle, out);
  out += '\t';
  append_query_time(draw, out);
  out += '\t';
  if (draw.clicked) append_number(draw.rank, out);
  out += '\t';
  if (draw.clicked) append_click_url(draw, out);
}

}  // namespace

std::string AolRecord::to_line() const {
  std::string line;
  line.reserve(user_id.size() + query.size() + query_time.size() +
               item_rank.size() + click_url.size() + 4);
  line += user_id;
  line += '\t';
  line += query;
  line += '\t';
  line += query_time;
  line += '\t';
  line += item_rank;
  line += '\t';
  line += click_url;
  return line;
}

AolRecord AolRecord::from_line(const std::string& line) {
  const auto fields = split(line, '\t');
  AolRecord record;
  if (fields.size() > 0) record.user_id = fields[0];
  if (fields.size() > 1) record.query = fields[1];
  if (fields.size() > 2) record.query_time = fields[2];
  if (fields.size() > 3) record.item_rank = fields[3];
  if (fields.size() > 4) record.click_url = fields[4];
  return record;
}

AolGenerator::AolGenerator(AolGeneratorConfig config)
    : config_(std::move(config)) {
  require(config_.record_count > 0, "record_count must be positive");
  require(config_.grep_needle_fraction > 0.0 &&
              config_.grep_needle_fraction < 1.0,
          "grep_needle_fraction must be in (0, 1)");
  needle_modulus_ = std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(1.0 / config_.grep_needle_fraction));
}

bool AolGenerator::is_grep_match(std::uint64_t index) const {
  return index % needle_modulus_ == kNeedleResidue % needle_modulus_;
}

std::uint64_t AolGenerator::grep_match_count() const {
  const std::uint64_t full_cycles = config_.record_count / needle_modulus_;
  const std::uint64_t remainder = config_.record_count % needle_modulus_;
  return full_cycles +
         ((kNeedleResidue % needle_modulus_) < remainder ? 1 : 0);
}

AolRecord AolGenerator::record_at(std::uint64_t index) const {
  const Draw draw = draw_record(*this, index);
  AolRecord record;
  append_number(draw.user_id, record.user_id);
  append_query(draw, config_.grep_needle, record.query);
  append_query_time(draw, record.query_time);
  if (draw.clicked) {
    append_number(draw.rank, record.item_rank);
    append_click_url(draw, record.click_url);
  }
  return record;
}

std::string AolGenerator::line_at(std::uint64_t index) const {
  std::string line;
  append_line(draw_record(*this, index), config_.grep_needle, line);
  return line;
}

std::vector<std::string> AolGenerator::all_lines() const {
  std::vector<std::string> lines;
  lines.reserve(config_.record_count);
  // Each line is built in one reused buffer and copied out at its exact
  // size, so the returned lines carry no slack capacity.
  std::string buffer;
  buffer.reserve(kMaxLineBytesBeforeNeedle + config_.grep_needle.size());
  for (std::uint64_t i = 0; i < config_.record_count; ++i) {
    buffer.clear();
    append_line(draw_record(*this, i), config_.grep_needle, buffer);
    lines.emplace_back(buffer);
  }
  return lines;
}

}  // namespace dsps::workload
