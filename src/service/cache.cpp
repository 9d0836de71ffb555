#include "service/cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace cref::service {

namespace {

template <class T>
void write_numbers(std::ostringstream& out, const char* label, const std::vector<T>& v) {
  out << label << ' ' << v.size();
  for (T x : v) out << ' ' << x;
  out << '\n';
}

void write_bits(std::ostringstream& out, const char* label, const std::vector<char>& v) {
  out << label << ' ' << v.size();
  if (!v.empty()) {
    out << ' ';
    for (char c : v) out << (c ? '1' : '0');
  }
  out << '\n';
}

class LineReader {
 public:
  explicit LineReader(const std::string& text) : in_(text) {}

  std::optional<std::string> next() {
    std::string line;
    if (!std::getline(in_, line)) return std::nullopt;
    return line;
  }

 private:
  std::istringstream in_;
};

bool no_trailing(std::istringstream& ss) {
  std::string rest;
  return !(ss >> rest);
}

bool open_labeled(const std::optional<std::string>& line, const char* label,
                  std::istringstream& ss) {
  if (!line) return false;
  ss.str(*line);
  std::string tok;
  return static_cast<bool>(ss >> tok) && tok == label;
}

template <class T>
bool read_numbers(LineReader& r, const char* label, std::vector<T>& out) {
  std::istringstream ss;
  if (!open_labeled(r.next(), label, ss)) return false;
  std::uint64_t n = 0;
  if (!(ss >> n)) return false;
  out.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    if (!(ss >> v)) return false;
    out.push_back(static_cast<T>(v));
  }
  return no_trailing(ss);
}

bool read_bits(LineReader& r, const char* label, std::vector<char>& out) {
  std::istringstream ss;
  if (!open_labeled(r.next(), label, ss)) return false;
  std::uint64_t n = 0;
  if (!(ss >> n)) return false;
  out.clear();
  if (n == 0) return no_trailing(ss);
  std::string bits;
  if (!(ss >> bits) || bits.size() != n) return false;
  for (char c : bits) {
    if (c != '0' && c != '1') return false;
    out.push_back(c == '1');
  }
  return no_trailing(ss);
}

bool read_flag(LineReader& r, const char* label, bool& out) {
  std::istringstream ss;
  if (!open_labeled(r.next(), label, ss)) return false;
  int v = 0;
  if (!(ss >> v) || (v != 0 && v != 1)) return false;
  out = v == 1;
  return no_trailing(ss);
}

bool read_word(LineReader& r, const char* label, std::string& out) {
  std::istringstream ss;
  if (!open_labeled(r.next(), label, ss)) return false;
  return static_cast<bool>(ss >> out) && no_trailing(ss);
}

}  // namespace

std::string serialize_entry(const CacheEntry& entry) {
  std::ostringstream out;
  out << "cref-cache 3\n";
  out << "relation " << to_string(entry.relation) << '\n';
  out << "holds " << (entry.holds ? 1 : 0) << '\n';
  // Raw to end of line; reasons never contain '\n' (and if one ever
  // did, the strict parser would turn the entry into a miss, not a
  // corrupted answer).
  out << "reason " << entry.reason << '\n';
  write_numbers(out, "witness", entry.witness);
  out << "cert " << (entry.certificate ? 1 : 0) << '\n';
  if (entry.certificate) {
    const JobCertificate& c = *entry.certificate;
    out << "positive " << (c.positive ? 1 : 0) << '\n';
    write_numbers(out, "rho", c.rho);
    write_numbers(out, "sigma", c.sigma);
    write_bits(out, "region", c.c_region);
    out << "compressed " << c.compressed.size() << '\n';
    for (const JobCertificate::APath& p : c.compressed) {
      out << "cpath " << p.s << ' ' << p.t << ' ' << p.path.size();
      for (StateId x : p.path) out << ' ' << x;
      out << '\n';
    }
    out << "kind " << to_string(c.kind) << '\n';
    write_numbers(out, "init-path", c.init_path);
    // The static refinement certificate is itself a line-oriented text
    // blob; embed it verbatim, length-prefixed by line count.
    std::size_t nlines = 0;
    for (char ch : c.refine)
      if (ch == '\n') ++nlines;
    out << "refine " << nlines << '\n' << c.refine;
  }
  out << "end\n";
  return out.str();
}

std::optional<CacheEntry> parse_entry(const std::string& text) {
  LineReader r(text);
  if (auto line = r.next(); !line || *line != "cref-cache 3") return std::nullopt;

  CacheEntry e;
  std::string word;
  if (!read_word(r, "relation", word)) return std::nullopt;
  try {
    e.relation = relation_from_string(word);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!read_flag(r, "holds", e.holds)) return std::nullopt;

  auto reason_line = r.next();
  if (!reason_line) return std::nullopt;
  if (*reason_line == "reason") {
    e.reason.clear();
  } else if (reason_line->rfind("reason ", 0) == 0) {
    e.reason = reason_line->substr(7);
  } else {
    return std::nullopt;
  }

  if (!read_numbers(r, "witness", e.witness)) return std::nullopt;
  bool has_cert = false;
  if (!read_flag(r, "cert", has_cert)) return std::nullopt;
  if (has_cert) {
    JobCertificate c;
    if (!read_flag(r, "positive", c.positive)) return std::nullopt;
    if (!read_numbers(r, "rho", c.rho)) return std::nullopt;
    if (!read_numbers(r, "sigma", c.sigma)) return std::nullopt;
    if (!read_bits(r, "region", c.c_region)) return std::nullopt;
    std::istringstream ss;
    if (!open_labeled(r.next(), "compressed", ss)) return std::nullopt;
    std::uint64_t count = 0;
    if (!(ss >> count) || !no_trailing(ss)) return std::nullopt;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::istringstream ps;
      if (!open_labeled(r.next(), "cpath", ps)) return std::nullopt;
      JobCertificate::APath p;
      std::uint64_t len = 0;
      if (!(ps >> p.s >> p.t >> len)) return std::nullopt;
      for (std::uint64_t j = 0; j < len; ++j) {
        StateId x = 0;
        if (!(ps >> x)) return std::nullopt;
        p.path.push_back(x);
      }
      if (!no_trailing(ps)) return std::nullopt;
      c.compressed.push_back(std::move(p));
    }
    if (!read_word(r, "kind", word)) return std::nullopt;
    try {
      c.kind = violation_kind_from_string(word);
    } catch (const std::exception&) {
      return std::nullopt;
    }
    if (!read_numbers(r, "init-path", c.init_path)) return std::nullopt;
    std::istringstream rs;
    if (!open_labeled(r.next(), "refine", rs)) return std::nullopt;
    std::uint64_t nlines = 0;
    if (!(rs >> nlines) || !no_trailing(rs)) return std::nullopt;
    for (std::uint64_t i = 0; i < nlines; ++i) {
      auto line = r.next();
      if (!line) return std::nullopt;
      c.refine += *line;
      c.refine += '\n';
    }
    e.certificate = std::move(c);
  }
  if (auto line = r.next(); !line || *line != "end") return std::nullopt;
  if (r.next()) return std::nullopt;  // trailing garbage
  return e;
}

VerdictCache::VerdictCache(std::size_t capacity, std::string dir)
    : capacity_(capacity ? capacity : 1), dir_(std::move(dir)) {}

std::optional<CacheEntry> VerdictCache::lookup(const Digest& key) {
  const std::string hex = key.hex();
  if (auto it = map_.find(hex); it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    return it->second->entry;
  }
  if (dir_.empty()) return std::nullopt;
  auto from_disk = disk_lookup(hex);
  if (from_disk) remember(hex, *from_disk);  // the file already holds these bytes
  return from_disk;
}

void VerdictCache::store(const Digest& key, const CacheEntry& entry) {
  const std::string hex = key.hex();
  remember(hex, entry);
  if (!dir_.empty()) disk_store(hex, entry);
}

void VerdictCache::remember(const std::string& key_hex, const CacheEntry& entry) {
  if (auto it = map_.find(key_hex); it != map_.end()) {
    it->second->entry = entry;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Node{key_hex, entry});
    map_[key_hex] = lru_.begin();
    if (map_.size() > capacity_) {
      map_.erase(lru_.back().key_hex);
      lru_.pop_back();
    }
  }
}

std::optional<CacheEntry> VerdictCache::disk_lookup(const std::string& key_hex) const {
  std::ifstream in(std::filesystem::path(dir_) / (key_hex + ".entry"), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_entry(text.str());
}

void VerdictCache::disk_store(const std::string& key_hex, const CacheEntry& entry) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;  // disk store is best-effort; memory tier still answers
  std::ofstream out(std::filesystem::path(dir_) / (key_hex + ".entry"), std::ios::binary);
  if (!out) return;
  out << serialize_entry(entry);
}

}  // namespace cref::service
