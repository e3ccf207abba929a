// Fixture tree for cloudfog-unreached: src/lib/dead.hpp is included by
// nothing under bench/, so it must be flagged; used.hpp must not be.
#include "lib/used.hpp"

int main() { return fixture::used(); }
