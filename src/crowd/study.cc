#include "crowd/study.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/strings.h"

namespace mopcrowd {

namespace {

// Fig. 6(a) bucket structure: shares of the 2,351 devices.
struct ActivityBucket {
  double share;
  double lo, hi;  // measurement-count range (log-uniform within)
};
constexpr ActivityBucket kActivity[] = {
    {1314.0 / 2351.0, 1, 100},        // casual installs
    {575.0 / 2351.0, 100, 1000},      //
    {288.0 / 2351.0, 1000, 5000},     //
    {70.0 / 2351.0, 5000, 10000},     //
    {104.0 / 2351.0, 10000, 90000},   // the consistently-active heavy users
};

const char* kManufacturers[] = {"Samsung", "HTC", "LG", "Motorola",
                                "Huawei",  "XiaoMi", "Sony", "OnePlus"};

// Per-group concrete domain ids, interned once.
struct GroupDomains {
  std::vector<uint32_t> ids;
  double extra_median_ms = 20.0;
};

struct AppDomains {
  std::vector<GroupDomains> groups;
  moputil::WeightedCdf group_cdf;  // by traffic weight
};

}  // namespace

Study::Study(const World* world, StudyConfig config) : world_(world), config_(config) {
  MOP_CHECK(world != nullptr);
}

CrowdDataset Study::Run() {
  moputil::Rng rng(config_.seed);
  CrowdDataset ds;
  const auto& countries = world_->countries();
  const auto& isps = world_->isps();
  const auto& apps = world_->apps();

  // ---- Intern every concrete domain up front ----
  std::vector<AppDomains> app_domains(apps.size());
  for (size_t a = 0; a < apps.size(); ++a) {
    std::vector<double> group_weights;
    for (const auto& group : apps[a].domains) {
      GroupDomains gd;
      gd.extra_median_ms = group.extra_median_ms > 0
                               ? group.extra_median_ms
                               : PlacementExtraMedianMs(group.placement);
      for (int i = 0; i < group.count; ++i) {
        std::string name = group.pattern;
        auto pos = name.find("%d");
        if (pos != std::string::npos) {
          name = name.substr(0, pos) + std::to_string(i + 1) + name.substr(pos + 2);
        }
        gd.ids.push_back(ds.InternDomain(name));
      }
      app_domains[a].groups.push_back(std::move(gd));
      group_weights.push_back(group.traffic_weight);
    }
    app_domains[a].group_cdf = moputil::WeightedCdf(group_weights);
  }

  // ---- Device roster ----
  int n_devices = config_.effective_devices();
  std::vector<double> country_weights;
  country_weights.reserve(countries.size());
  for (const auto& c : countries) {
    country_weights.push_back(c.user_weight);
  }

  struct DeviceState {
    uint64_t quota = 0;
    std::vector<uint16_t> app_ids;
    std::vector<double> app_weights;
    double lte_share = 0.8;
    double g3_share = 0.17;
  };
  std::vector<DeviceState> dev_state(static_cast<size_t>(n_devices));
  ds.devices().resize(static_cast<size_t>(n_devices));

  // Activity quotas per Fig. 6(a), then retarget the heavy tail so the total
  // lands on the dataset size.
  std::vector<double> bucket_shares;
  for (const auto& b : kActivity) {
    bucket_shares.push_back(b.share);
  }
  uint64_t total_quota = 0;
  std::vector<int> heavy_devices;
  for (int d = 0; d < n_devices; ++d) {
    size_t bucket = rng.WeightedIndex(bucket_shares);
    const auto& b = kActivity[bucket];
    double log_lo = std::log(b.lo), log_hi = std::log(b.hi);
    uint64_t quota =
        static_cast<uint64_t>(std::exp(rng.Uniform(log_lo, log_hi)));
    quota = std::max<uint64_t>(1, quota);
    dev_state[static_cast<size_t>(d)].quota = quota;
    total_quota += quota;
    if (bucket == 4) {
      heavy_devices.push_back(d);
    }
  }
  uint64_t target = config_.effective_target();
  if (heavy_devices.empty()) {
    // Tiny rosters can sample zero heavy users; promote the busiest device so
    // the retargeting below still lands on the dataset total.
    int busiest = 0;
    for (int d = 1; d < n_devices; ++d) {
      if (dev_state[static_cast<size_t>(d)].quota >
          dev_state[static_cast<size_t>(busiest)].quota) {
        busiest = d;
      }
    }
    heavy_devices.push_back(busiest);
  }
  {
    // Retarget by scaling the heavy-user quotas so the sum lands on the
    // dataset total without disturbing the lower Fig. 6(a) buckets.
    uint64_t heavy_sum = 0;
    for (int d : heavy_devices) {
      heavy_sum += dev_state[static_cast<size_t>(d)].quota;
    }
    uint64_t others = total_quota - heavy_sum;
    if (target > others && heavy_sum > 0) {
      double factor =
          static_cast<double>(target - others) / static_cast<double>(heavy_sum);
      for (int d : heavy_devices) {
        auto& q = dev_state[static_cast<size_t>(d)].quota;
        q = std::max<uint64_t>(1, static_cast<uint64_t>(static_cast<double>(q) * factor));
      }
    } else if (total_quota > 0) {
      // Degenerate tiny-scale case: scale everyone.
      double factor = static_cast<double>(target) / static_cast<double>(total_quota);
      for (auto& st : dev_state) {
        st.quota = std::max<uint64_t>(1, static_cast<uint64_t>(
                                             static_cast<double>(st.quota) * factor));
      }
    }
  }

  // Per-device profile.
  std::vector<double> isp_weight_buf;
  for (int d = 0; d < n_devices; ++d) {
    auto& info = ds.devices()[static_cast<size_t>(d)];
    auto& state = dev_state[static_cast<size_t>(d)];
    info.country_id = static_cast<uint16_t>(rng.WeightedIndex(country_weights));
    const CountryProfile& c = countries[info.country_id];
    // Cellular operator by in-country popularity.
    if (!c.cellular_isps.empty()) {
      isp_weight_buf.clear();
      for (int isp_id : c.cellular_isps) {
        isp_weight_buf.push_back(isps[static_cast<size_t>(isp_id)].weight);
      }
      info.cellular_isp = c.cellular_isps[rng.WeightedIndex(isp_weight_buf)];
    }
    // 922 distinct models across 8 manufacturers (the dataset's coverage).
    int model_id = static_cast<int>(rng.UniformInt(0, 921));
    info.model = moputil::StrFormat("%s-M%03d", kManufacturers[model_id % 8], model_id / 8);
    info.wifi_share = std::clamp(0.55 + rng.Gaussian() * 0.22, 0.05, 0.95);
    state.lte_share = std::clamp(0.80 + rng.Gaussian() * 0.08, 0.4, 0.97);
    state.g3_share = std::clamp(0.85 * (1.0 - state.lte_share), 0.0, 1.0);
    // Measurement locations: home plus occasional travel (Fig. 8).
    int locations = 1 + static_cast<int>(rng.Exponential(1.4));
    for (int l = 0; l < locations; ++l) {
      double lat = std::clamp(c.lat + rng.Gaussian() * 6.0, -55.0, 70.0);
      double lon = c.lon + rng.Gaussian() * 8.0;
      if (lon > 180) {
        lon -= 360;
      }
      if (lon < -180) {
        lon += 360;
      }
      info.locations.emplace_back(lat, lon);
    }

    // Installed apps: head apps by install rate, a sample of the tail.
    constexpr size_t kHeadApps = 16;
    for (size_t a = 0; a < std::min(kHeadApps, apps.size()); ++a) {
      if (rng.Bernoulli(apps[a].install_rate)) {
        state.app_ids.push_back(static_cast<uint16_t>(a));
        state.app_weights.push_back(apps[a].usage_weight *
                                    rng.LogNormalMedian(1.0, 0.6));
      }
    }
    int tail_samples = static_cast<int>(rng.UniformInt(30, 75));
    for (int t = 0; t < tail_samples && apps.size() > kHeadApps; ++t) {
      // Zipf-ish tail pick: squared uniform biases toward small indices.
      double u = rng.NextDouble();
      size_t idx = kHeadApps + static_cast<size_t>(std::pow(u, 1.25) * static_cast<double>(
                                                       apps.size() - kHeadApps));
      idx = std::min(idx, apps.size() - 1);
      state.app_ids.push_back(static_cast<uint16_t>(idx));
      state.app_weights.push_back(apps[idx].usage_weight * rng.LogNormalMedian(1.0, 0.6));
    }
    if (state.app_ids.empty()) {  // every phone has Play services at least
      state.app_ids.push_back(9);
      state.app_weights.push_back(1.0);
    }
  }

  // ---- Generate measurements ----
  ds.Reserve(target + 1000);
  for (int d = 0; d < n_devices; ++d) {
    auto& info = ds.devices()[static_cast<size_t>(d)];
    auto& state = dev_state[static_cast<size_t>(d)];
    const CountryProfile& c = countries[info.country_id];
    const IspProfile* cell_isp =
        info.cellular_isp >= 0 ? &isps[static_cast<size_t>(info.cellular_isp)] : nullptr;
    const moputil::WeightedCdf app_cdf(state.app_weights);

    for (uint64_t m = 0; m < state.quota; ++m) {
      CrowdRecord rec;
      rec.device_id = static_cast<uint32_t>(d);
      rec.country_id = info.country_id;

      // Network for this measurement.
      mopnet::NetType net;
      if (rng.Bernoulli(info.wifi_share) || cell_isp == nullptr) {
        net = mopnet::NetType::kWifi;
        rec.isp_id = kNoIsp;
      } else {
        double r = rng.NextDouble();
        net = r < state.lte_share
                  ? mopnet::NetType::kLte
                  : (r < state.lte_share + state.g3_share ? mopnet::NetType::k3G
                                                          : mopnet::NetType::k2G);
        rec.isp_id = static_cast<uint16_t>(info.cellular_isp);
      }
      rec.net_type = static_cast<uint8_t>(net);
      const IspProfile* isp = net == mopnet::NetType::kWifi ? nullptr : cell_isp;

      // App + domain for this connection (DNS also names a domain).
      size_t app_pos = rng.WeightedIndex(app_cdf);
      uint16_t app_id = state.app_ids[app_pos];
      const AppDomains& ad = app_domains[app_id];
      size_t group = rng.WeightedIndex(ad.group_cdf);
      const GroupDomains& gd = ad.groups[group];
      rec.domain_id = gd.ids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(gd.ids.size()) - 1))];

      if (rng.Bernoulli(config_.dns_fraction)) {
        rec.kind = RecordKind::kDns;
        rec.app_id = kNoApp;  // DNS is system-wide (§2.2)
        rec.rtt_ms = static_cast<float>(
            world_->SampleDnsRttMs(net, isp, c.wifi_dns_median_ms, rng));
      } else {
        rec.kind = RecordKind::kTcp;
        rec.app_id = app_id;
        // ~17% of domains ride in-ISP caches or peering shortcuts that dodge
        // a congested core (Jio's 19-of-115 well-performing domains).
        bool core_exempt = (rec.domain_id * 2654435761u) % 100 < 17;
        rec.rtt_ms = static_cast<float>(
            world_->SampleAppRttMsWithExtra(net, isp, gd.extra_median_ms, rng, core_exempt));
      }
      ds.Add(rec);
      ++info.measurements;
    }
  }
  return ds;
}

}  // namespace mopcrowd
