#include "lib/used.hpp"

#include "lib/detail.hpp"

namespace fixture {
int used() { return detail(); }
}  // namespace fixture
