// Fixture: no entry point includes this header (finding).
#pragma once

namespace fixture {
inline int dead() { return 1; }
}  // namespace fixture
