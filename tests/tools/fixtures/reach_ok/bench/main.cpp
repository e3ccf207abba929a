// Fixture tree for cloudfog-unreached: every src/ header is reached from
// this entry point, directly or through the .cpp beside a reached header;
// src/oracle/ is exempt.
#include "lib/used.hpp"

int main() { return fixture::used(); }
