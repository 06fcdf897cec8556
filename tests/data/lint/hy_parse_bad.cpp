// Fixture: hy-lenient-parse positives (src scope only).
#include <cstdio>
#include <string>

int width(const std::string& tok) {
  return std::stoi(tok);  // positive: throws on "abc", accepts "4x"
}

bool recipe(const char* text, double& a, double& b) {
  return std::sscanf(text, "%lf,%lf", &a, &b) == 2;  // positive
}

double value(const std::string& tok) {
  using std::stod;
  return stod(tok) + static_cast<double>(std::stoull(tok));  // 2 positives
}
