// U1 and typed receivers: the tool calls ToCsv only on a Table local.
// Recorder is live (the tool records into it) and the name ToCsv is
// called, but Recorder::ToCsv is not reached.
#include "u1/src/lib.h"

namespace u1 {

std::string Table::ToCsv() const { return "a,b\n"; }

void Recorder::Record(int value) { (void)value; }

std::string Recorder::ToCsv() const { return ""; }

}  // namespace u1
