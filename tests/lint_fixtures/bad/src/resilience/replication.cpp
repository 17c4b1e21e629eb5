#include "resilience/fault_injector.h"

// A transport-private fault taxonomy: exactly what DL007 forbids.
enum class LinkFault { kDrop, kDelay };
