#include "net/location.h"

namespace hivesim::net {

std::string_view ContinentName(Continent c) {
  switch (c) {
    case Continent::kUs:
      return "US";
    case Continent::kEu:
      return "EU";
    case Continent::kAsia:
      return "ASIA";
    case Continent::kAus:
      return "AUS";
  }
  return "?";
}

}  // namespace hivesim::net
