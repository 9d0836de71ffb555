#pragma once

// Verified verdict cache: in-memory LRU over 128-bit job keys plus an
// optional on-disk store (one strict, versioned text file per key under
// `dir`). The cache is deliberately dumb storage — it never decides an
// answer. The service revalidates every hit's certificate against
// locally rebuilt graphs before serving it, so a tampered, truncated,
// version-skewed, or key-colliding entry can only cost a recompute.
// Accordingly, the parser is strict (any malformed field = miss) but
// parsing success proves nothing; the certificate validator does.
//
// Not internally synchronized: CheckService serializes access.

#include <cstddef>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/space.hpp"
#include "service/certify.hpp"
#include "service/hash.hpp"
#include "service/relation.hpp"

namespace cref::service {

/// One cached verdict: the complete CheckResult payload (reason and
/// witness are served back byte-identically) plus its certificate when
/// the instance was certifiable. An entry without a certificate is
/// stored for inspection but never served — warm lookups recompute.
struct CacheEntry {
  Relation relation = Relation::kRefinementInit;
  bool holds = false;
  std::string reason;
  std::vector<StateId> witness;
  std::optional<JobCertificate> certificate;
};

/// Versioned line-oriented text encoding ("cref-cache 3" header; the
/// version was bumped when certificates stopped storing A-side
/// reachability evidence — older files parse as misses and recompute).
std::string serialize_entry(const CacheEntry& entry);

/// Strict inverse of serialize_entry: any unknown version, missing
/// field, trailing garbage, or malformed number yields nullopt (a cache
/// miss), never a best-effort entry.
std::optional<CacheEntry> parse_entry(const std::string& text);

class VerdictCache {
 public:
  /// `capacity` bounds the in-memory LRU (>= 1); `dir` (optional)
  /// enables the on-disk store, one "<key-hex>.entry" file per key.
  /// The directory is created on first store.
  explicit VerdictCache(std::size_t capacity = 1024, std::string dir = {});

  /// Memory first (refreshing recency), then disk; a disk hit is
  /// promoted into memory only (its file is left untouched). nullopt on
  /// miss or malformed disk entry.
  std::optional<CacheEntry> lookup(const Digest& key);

  /// Inserts or overwrites in memory (evicting the least-recently-used
  /// entry past capacity) and, when enabled, on disk.
  void store(const Digest& key, const CacheEntry& entry);

  std::size_t size() const { return map_.size(); }
  const std::string& dir() const { return dir_; }

 private:
  struct Node {
    std::string key_hex;
    CacheEntry entry;
  };

  void remember(const std::string& key_hex, const CacheEntry& entry);  // memory tier
  std::optional<CacheEntry> disk_lookup(const std::string& key_hex) const;
  void disk_store(const std::string& key_hex, const CacheEntry& entry) const;

  std::size_t capacity_;
  std::string dir_;
  std::list<Node> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Node>::iterator> map_;
};

}  // namespace cref::service
