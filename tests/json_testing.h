// Test helpers over the one JSON reader (obs::parseJson), for the tests that
// read a JSON writer's output back.
#pragma once

#include <gtest/gtest.h>

#include <string_view>
#include <utility>

#include "obs/json.h"

namespace hoyan::testing {

// Parses `text`; a parse error fails the calling test and reads as null.
inline obs::JsonValue parseJsonOrFail(std::string_view text) {
  obs::JsonParse parsed = obs::parseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error.str() << " in " << text;
  return std::move(parsed.value);
}

// The member `key` of `value`; a missing member fails the calling test and
// reads as null.
inline const obs::JsonValue& member(const obs::JsonValue& value, std::string_view key) {
  static const obs::JsonValue kMissing;
  const obs::JsonValue* found = value.find(key);
  EXPECT_NE(found, nullptr) << "no member '" << key << "'";
  return found ? *found : kMissing;
}

}  // namespace hoyan::testing
