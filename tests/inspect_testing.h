// Test helper over hoyan_inspect's journal checks, for the tests that
// validate a journal a run wrote.
#pragma once

#include <string>
#include <vector>

#include "inspect.h"

namespace hoyan::testing {

// Parses and schema-checks a whole journal, as `hoyan_inspect validate`
// does; false with the located `error` on the first malformed line or event.
inline bool validateJournalText(const std::string& text, std::string& error) {
  std::vector<inspect::Event> events;
  return inspect::parseJournal(text, events, error) &&
         inspect::validateJournal(events, error);
}

}  // namespace hoyan::testing
