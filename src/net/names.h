// Process-wide string interning.
//
// Router, VRF, interface, policy, and vendor names appear on millions of
// routes; interning them to 32-bit ids keeps routes compact and makes
// equality/hashing O(1). The table is append-only and guarded by a shared
// mutex so distributed-simulation worker threads can resolve names
// concurrently.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace hoyan {

using NameId = uint32_t;
inline constexpr NameId kInvalidName = 0xffffffffu;

class Names {
 public:
  // Returns the id for `name`, creating one if needed.
  static NameId id(std::string_view name) {
    Names& table = instance();
    {
      std::shared_lock lock(table.mutex_);
      const auto it = table.ids_.find(std::string(name));
      if (it != table.ids_.end()) return it->second;
    }
    std::unique_lock lock(table.mutex_);
    const auto [it, inserted] =
        table.ids_.emplace(std::string(name), static_cast<NameId>(table.strings_.size()));
    if (inserted) table.strings_.push_back(it->first);
    return it->second;
  }

  // Returns the id for `name` if it was created, without creating one.
  static std::optional<NameId> find(std::string_view name) {
    Names& table = instance();
    std::shared_lock lock(table.mutex_);
    const auto it = table.ids_.find(std::string(name));
    if (it == table.ids_.end()) return std::nullopt;
    return it->second;
  }

  // Returns the string for a previously created id. The reference stays
  // valid for the life of the process, across later ids.
  static const std::string& str(NameId id) {
    Names& table = instance();
    std::shared_lock lock(table.mutex_);
    return table.strings_.at(id);
  }

 private:
  static Names& instance() {
    static Names table;
    return table;
  }

  std::shared_mutex mutex_;
  std::unordered_map<std::string, NameId> ids_;
  // Indexed by NameId. A deque, so push_back never moves the strings that
  // str() handed out.
  std::deque<std::string> strings_;
};

}  // namespace hoyan
