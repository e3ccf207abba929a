// Lint fixture: order-sensitive floating accumulation over an unordered
// container.
// Exercised by tests/tools/lint_test.py; never compiled.
#include <unordered_map>

namespace fixture {

struct Stats {
  std::unordered_map<int, double> samples_;

  double order_sensitive_sum() {
    double total = 0.0;
    for (const auto& [key, value] : samples_) {
      total += value;  // BAD: bucket order is seed-defined
      (void)key;
    }
    return total;
  }
};

}  // namespace fixture
