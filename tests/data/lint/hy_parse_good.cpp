// Fixture: hy-lenient-parse negatives.
#include <optional>
#include <string>

#include "common/parse.hpp"

std::optional<int> width(const std::string& tok) {
  return srl::parse_number<int>(tok);  // whole-token, never throws
}

int stoi_calls = 0;  // a name that merely contains the token
std::string describe() { return "std::stoi and sscanf are banned"; }
