#include "core/catalog.h"

#include <cstdlib>

#include "common/strings.h"
#include "net/profiles.h"

namespace hivesim::core {

namespace {

NamedExperiment Make(std::string name, std::vector<VmGroup> groups) {
  NamedExperiment e;
  e.name = std::move(name);
  e.cluster.groups = std::move(groups);
  return e;
}

const char* VariantLetter(HybridVariant v) {
  switch (v) {
    case HybridVariant::kEuT4:
      return "A";
    case HybridVariant::kUsT4:
      return "B";
    case HybridVariant::kUsA10:
      return "C";
  }
  return "?";
}

VmGroup CloudGroup(HybridVariant v, int count) {
  switch (v) {
    case HybridVariant::kEuT4:
      return GcT4s(count, net::kGcEu);
    case HybridVariant::kUsT4:
      return GcT4s(count, net::kGcUs);
    case HybridVariant::kUsA10:
      return LambdaA10s(count);
  }
  return GcT4s(count);
}

std::vector<NamedExperiment> HybridSeries(const char* prefix,
                                          VmGroup on_prem,
                                          HybridVariant variant) {
  std::vector<NamedExperiment> out;
  for (int n : {1, 2, 4, 8}) {
    out.push_back(Make(
        StrCat(prefix, "-", VariantLetter(variant), "-", n),
        {on_prem, CloudGroup(variant, n)}));
  }
  return out;
}

}  // namespace

std::vector<NamedExperiment> ASeries() {
  std::vector<NamedExperiment> out;
  for (int n : {1, 2, 3, 4, 6, 8}) {
    out.push_back(Make(StrCat("A-", n), {GcT4s(n, net::kGcUs)}));
  }
  return out;
}

std::vector<NamedExperiment> BSeries() {
  std::vector<NamedExperiment> out;
  for (int half : {1, 2, 3, 4}) {
    out.push_back(Make(StrCat("B-", 2 * half),
                       {GcT4s(half, net::kGcUs), GcT4s(half, net::kGcEu)}));
  }
  return out;
}

std::vector<NamedExperiment> CSeries() {
  std::vector<NamedExperiment> out;
  out.push_back(Make("C-3", {GcT4s(1, net::kGcUs), GcT4s(1, net::kGcEu),
                             GcT4s(1, net::kGcAsia)}));
  out.push_back(Make("C-4", {GcT4s(1, net::kGcUs), GcT4s(1, net::kGcEu),
                             GcT4s(1, net::kGcAsia), GcT4s(1, net::kGcAus)}));
  out.push_back(Make("C-6", {GcT4s(2, net::kGcUs), GcT4s(2, net::kGcEu),
                             GcT4s(2, net::kGcAsia)}));
  out.push_back(Make("C-8", {GcT4s(2, net::kGcUs), GcT4s(2, net::kGcEu),
                             GcT4s(2, net::kGcAsia), GcT4s(2, net::kGcAus)}));
  return out;
}

std::vector<NamedExperiment> DSeries() {
  std::vector<NamedExperiment> out;
  out.push_back(Make("D-1", {GcT4s(4, net::kGcUs)}));
  out.push_back(Make("D-2", {GcT4s(2, net::kGcUs), AwsT4s(2)}));
  out.push_back(Make("D-3", {GcT4s(2, net::kGcUs), AzureT4s(2)}));
  return out;
}

std::vector<NamedExperiment> ESeries(HybridVariant variant) {
  return HybridSeries("E", OnPremRtx8000(), variant);
}

std::vector<NamedExperiment> FSeries(HybridVariant variant) {
  return HybridSeries("F", OnPremDgx2(), variant);
}

std::vector<NamedExperiment> LambdaSeries() {
  std::vector<NamedExperiment> out;
  for (int n : {1, 2, 3, 4, 8}) {
    out.push_back(Make(StrCat(n, "xA10"), {LambdaA10s(n)}));
  }
  return out;
}

namespace {

Result<VmGroup> GroupFor(const std::string& site_alias, int count) {
  auto it = net::SiteAliases().find(site_alias);
  if (it == net::SiteAliases().end()) {
    return Status::InvalidArgument(StrCat("unknown site '", site_alias,
                                          "'; see `hivesim list`"));
  }
  switch (it->second) {
    case net::kAwsUsWest:
      return AwsT4s(count);
    case net::kAzureUsSouth:
      return AzureT4s(count);
    case net::kLambdaUsWest:
      return LambdaA10s(count);
    case net::kOnPremEu:
      return Status::InvalidArgument(
          "on-prem machines are singletons; the hybrid E/F series run "
          "them (hivesim reproduce --figure=fig13,fig14)");
    default:
      return GcT4s(count, it->second);
  }
}

}  // namespace

Result<ClusterSpec> ParseFleetSpec(const std::string& spec) {
  ClusterSpec cluster;
  for (const std::string& part : StrSplit(spec, ',')) {
    const auto fields = StrSplit(part, ':');
    if (fields.size() != 2) {
      return Status::InvalidArgument(
          StrCat("bad group '", part, "', want site:count"));
    }
    const int count = std::atoi(fields[1].c_str());
    if (count <= 0) {
      return Status::InvalidArgument(StrCat("bad count in '", part, "'"));
    }
    VmGroup group;
    HIVESIM_ASSIGN_OR_RETURN(group, GroupFor(fields[0], count));
    cluster.groups.push_back(group);
  }
  if (cluster.groups.empty()) {
    return Status::InvalidArgument("empty fleet spec");
  }
  return cluster;
}

}  // namespace hivesim::core

