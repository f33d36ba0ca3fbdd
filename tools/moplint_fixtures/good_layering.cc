// moplint fixture: scanned as src/net/good_layering.cc — net may use netpkt,
// sim, concurrent, util, and its own headers. No findings expected.
#include "net/selector.h"
#include "netpkt/ip.h"
#include "sim/event_loop.h"
#include "concurrent/steal_board.h"
#include "util/logging.h"
#include <vector>
