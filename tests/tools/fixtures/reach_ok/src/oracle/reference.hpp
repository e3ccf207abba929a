// Fixture: a test oracle. No entry point includes it, and none has to.
#pragma once

namespace fixture {
inline int reference() { return 0; }
}  // namespace fixture
