// Lint fixture: deterministic accumulation idioms — ordered iteration for
// float sums, and integer counts over unordered state (with a justified
// suppression for the traversal itself). Must stay fully lint-clean.
#include <unordered_map>
#include <vector>

namespace fixture {

struct Stats {
  std::unordered_map<int, double> samples_;

  double ordered_sum(const std::vector<double>& values) {
    double total = 0.0;
    for (double v : values) {
      total += v;  // vector order is deterministic
    }
    return total;
  }

  int live_count() {
    int n = 0;
    // NOLINTNEXTLINE(cloudfog-unordered-iter): integer count, order-insensitive
    for (const auto& [key, value] : samples_) {
      n += key > 0 ? 1 : 0;
      (void)value;
    }
    return n;
  }
};

}  // namespace fixture
