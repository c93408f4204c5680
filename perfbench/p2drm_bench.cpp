// P2DRM benchmark: seeded user flows through the real client ->
// RPC envelope -> actors -> server pipeline -> spent set + journal path.
//
//   p2drm_bench --workload <retail|transfer_batch|transfer_single>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--out <dir>] [--smoke]
//
// The last stdout line is one JSON object: {correct, attempted, failed,
// metrics}. --trace 0 reports the end-to-end metrics from an untraced
// run; --trace 1 runs the workload untraced and then traced, and reports
// the per-layer metrics. A fuller report (config block, sample counts,
// the op-named metrics) and, with --trace 1, a Chrome/Perfetto trace are
// written under --out. perfbench/README.md describes the workloads and
// the layer -> end-to-end map.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/agent.h"
#include "core/metrics.h"
#include "core/protocol.h"
#include "core/system.h"
#include "crypto/drbg.h"
#include "net/rpc.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "probe.h"
#include "sim/zipf.h"

namespace {

using namespace p2drm;  // NOLINT
using perfbench::Layer;
using perfbench::NowUs;
using perfbench::Op;
using perfbench::OpName;
using perfbench::Probe;
namespace proto = core::protocol;
namespace fs = std::filesystem;

enum class Workload { kRetail, kTransferBatch, kTransferSingle };

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kRetail:
      return "retail";
    case Workload::kTransferBatch:
      return "transfer_batch";
    case Workload::kTransferSingle:
      return "transfer_single";
  }
  return "?";
}

/// Every knob of a run; all of it goes into the report's config block.
struct Config {
  Workload workload = Workload::kRetail;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/out";

  std::size_t server_bits = 2048;  ///< CA, TTP, bank denominations, CP
  std::size_t client_bits = 1024;  ///< card master, device, pseudonyms
  std::size_t users = 8;
  std::size_t cheaters = 2;            ///< transfer_single only
  std::size_t catalog = 50;
  std::size_t content_bytes = 1 << 20;
  double zipf_alpha = 1.0;
  std::size_t redeem_shards = 2;
  std::size_t signer_pool_size = 2;
  std::size_t deposit_shards = 1;
  std::size_t batch = 32;              ///< transfer_batch items per call
  std::size_t plays_per_purchase = 4;  ///< retail
  std::size_t licenses_per_user = 8;   ///< transfer_single initial holdings
  std::uint32_t cheat_one_in = 16;     ///< transfer_single cheat share
  std::size_t setups = 3;              ///< setup_s is their median
  std::size_t warmup_steps = 4;        ///< untimed steps after setup
  std::size_t smoke_steps = 0;         ///< >0: fixed step count per phase

  void ApplySmoke() {
    smoke = true;
    server_bits = 512;
    client_bits = 512;
    users = 4;
    catalog = 8;
    content_bytes = 4096;
    batch = 4;
    licenses_per_user = 2;
    cheat_one_in = 2;
    setups = 1;
    warmup_steps = 1;
    smoke_steps = 8;
  }
};

// ---- small helpers ---------------------------------------------------------

std::uint64_t SplitMix(std::uint64_t* s) {
  std::uint64_t z = (*s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Title plaintext: deterministic bytes per title index.
std::vector<std::uint8_t> TitleBytes(std::size_t title, std::size_t size) {
  std::vector<std::uint8_t> out(size);
  std::uint64_t s = 0x5eed0000ull + title;
  for (std::size_t i = 0; i < size; i += 8) {
    std::uint64_t v = SplitMix(&s);
    std::memcpy(out.data() + i, &v, std::min<std::size_t>(8, size - i));
  }
  return out;
}

/// DRBG reseed material for a run seed.
std::vector<std::uint8_t> SeedBytes(std::uint64_t seed) {
  std::vector<std::uint8_t> out(8);
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(seed >> (8 * i));
  return out;
}

/// Uniform index in [0, n) from the workload's seeded op stream.
std::size_t Pick(bignum::RandomSource* rng, std::size_t n) {
  std::uint64_t v = 0;
  rng->Fill(reinterpret_cast<std::uint8_t*>(&v), sizeof(v));
  return static_cast<std::size_t>(v % n);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto pos = line.find(':');
      if (pos != std::string::npos) return line.substr(pos + 2);
    }
  }
  return "unknown";
}

/// Nearest-rank percentile of \p v (sorted copy), p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * v.size() / 100.0 - 1e-9));
  rank = std::max<std::size_t>(1, std::min(rank, v.size()));
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Div(double a, double b) { return b != 0 ? a / b : 0; }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Ordered (name -> value, unit) list printed as a JSON metrics block.
struct MetricList {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  std::string Json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) s += ", ";
      s += JsonString(items[i].first) + ": {\"value\": " +
           Num(items[i].second.first) +
           ", \"unit\": " + JsonString(items[i].second.second) + "}";
    }
    return s + "}";
  }
};

// ---- the system under test -------------------------------------------------

/// Who holds which license: the benchmark's own ledger, checked against
/// the devices (conservation of licenses in circulation).
struct Holding {
  rel::LicenseId id;
  rel::ContentId content = 0;
};

/// One fully built system: actors, catalog, agents and (for the transfer
/// workloads) the licenses in circulation. Building it is what setup_s
/// measures.
class Fixture {
 public:
  Fixture(const Config& cfg, const std::vector<std::vector<std::uint8_t>>& titles,
          const std::string& journal_dir, obs::Sink sink)
      : rng_("p2drm-bench-setup"), journal_dir_(journal_dir) {
    fs::remove_all(journal_dir_);
    fs::create_directories(journal_dir_);

    core::SystemConfig sys;
    sys.ca_key_bits = cfg.server_bits;
    sys.ttp_key_bits = cfg.server_bits;
    sys.bank_key_bits = cfg.server_bits;
    sys.cp.signing_key_bits = cfg.server_bits;
    sys.cp.redeem_shards = cfg.redeem_shards;
    sys.cp.signer_pool_size = cfg.signer_pool_size;
    sys.cp.spent_journal_path = journal_dir_ + "/spent";
    sys.bank.deposit_shards = cfg.deposit_shards;
    system_ = std::make_unique<core::P2drmSystem>(sys, &rng_);
    // Observability must be wired before the first batch reaches the
    // signer pool; the registry and tracer stay disabled until a traced
    // phase switches them on.
    if (sink.registry != nullptr || sink.tracer != nullptr) {
      system_->cp().set_observability(sink);
    }

    for (std::size_t i = 0; i < titles.size(); ++i) {
      catalog_.push_back(system_->cp().Publish(
          "title-" + std::to_string(i), titles[i], 1 + i % 20,
          rel::Rights::FullRetail()));
    }

    core::AgentConfig acfg;
    acfg.pseudonym_bits = cfg.client_bits;
    acfg.initial_bank_balance = 1ull << 40;
    // Retail follows the paper's policy (fresh pseudonym per purchase);
    // the transfer workloads keep one long-lived pseudonym per user, so
    // no keygen happens after setup.
    acfg.pseudonym_max_uses =
        cfg.workload == Workload::kRetail ? 1 : (1ull << 62);
    for (std::size_t u = 0; u < cfg.users; ++u) {
      users_.push_back(std::make_unique<core::UserAgent>(
          "user-" + std::to_string(u), acfg, system_.get(), &rng_));
    }
    held_.resize(cfg.users);
    if (cfg.workload == Workload::kTransferSingle) {
      core::AgentConfig ccfg = acfg;
      ccfg.pseudonym_max_uses = 1;
      for (std::size_t c = 0; c < cfg.cheaters; ++c) {
        cheaters_.push_back(std::make_unique<core::UserAgent>(
            "cheater-" + std::to_string(c), ccfg, system_.get(), &rng_));
      }
    }

    // Licenses in circulation, bought in batches under long-lived
    // pseudonyms: transfer_batch starts with two users holding one batch
    // each (a giver must hold a full batch), transfer_single spreads
    // licenses_per_user over everyone.
    if (cfg.workload != Workload::kRetail) {
      sim::ZipfGenerator zipf(catalog_.size(), cfg.zipf_alpha);
      for (std::size_t u = 0; u < cfg.users; ++u) {
        std::size_t n = cfg.workload == Workload::kTransferBatch
                            ? (u < 2 ? cfg.batch : 0)
                            : cfg.licenses_per_user;
        if (n == 0) continue;
        std::vector<rel::ContentId> want;
        for (std::size_t i = 0; i < n; ++i) {
          want.push_back(catalog_[zipf.Next(&rng_)]);
        }
        std::vector<rel::License> lics;
        std::vector<core::Status> st = users_[u]->BuyContentBatch(want, &lics);
        for (std::size_t i = 0; i < n; ++i) {
          if (st[i] != core::Status::kOk) {
            throw std::runtime_error(std::string("setup purchase failed: ") +
                                     core::StatusName(st[i]));
          }
          held_[u].push_back({lics[i].id, lics[i].content_id});
        }
      }
    }
  }

  ~Fixture() {
    // Stop the shard and signer threads before the journal goes away.
    users_.clear();
    cheaters_.clear();
    system_.reset();
    std::error_code ec;
    fs::remove_all(journal_dir_, ec);
  }

  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  /// Switches the workload's randomness to the run seed: everything built
  /// so far came from the fixed setup seed, everything after depends on
  /// --seed only.
  void Reseed(std::uint64_t seed) { rng_.Reseed(SeedBytes(seed)); }

  /// Interposes timed spans on every endpoint. The CP and bank dispatch
  /// tables are public; the CA and TTP tables are rebuilt here on the same
  /// public actor calls P2drmSystem registers, for the two requests the
  /// measured phases send them (enrolment happens only during setup).
  void Interpose(Probe* probe) {
    core::P2drmSystem* sys = system_.get();
    ca_service_.Register<proto::PseudonymSignRequest>(
        [sys](const proto::PseudonymSignRequest& req,
              proto::PseudonymSignResponse* resp) {
          resp->blind_signature =
              sys->ca().SignPseudonymBlinded(req.card_id, req.blinded);
          return core::Status::kOk;
        });
    ttp_service_.Register<proto::OpenEscrowRequest>(
        [sys](const proto::OpenEscrowRequest& req,
              proto::OpenEscrowResponse* resp) {
          auto out = sys->ttp().OpenEscrow(req.evidence, sys->cp().PublicKey());
          resp->opened = out.opened;
          resp->card_id = out.card_id;
          resp->reason = out.reason;
          return core::Status::kOk;
        });
    auto wrap = [probe](Layer layer, const char* span,
                        const net::ServiceRegistry* service) {
      return [probe, layer, span, service](const std::vector<std::uint8_t>& req) {
        std::vector<std::uint8_t> resp;
        probe->Span(layer, span, [&] { resp = service->Dispatch(req); });
        return resp;
      };
    };
    net::Transport& t = sys->transport();
    t.RegisterEndpoint(core::P2drmSystem::kCaEndpoint,
                       wrap(Layer::kCa, "ca.dispatch", &ca_service_));
    t.RegisterEndpoint(core::P2drmSystem::kBankEndpoint,
                       wrap(Layer::kBank, "bank.dispatch", &sys->bank_service()));
    t.RegisterEndpoint(core::P2drmSystem::kCpEndpoint,
                       wrap(Layer::kCp, "cp.dispatch", &sys->cp_service()));
    t.RegisterEndpoint(core::P2drmSystem::kTtpEndpoint,
                       wrap(Layer::kTtp, "ttp.dispatch", &ttp_service_));
  }

  /// Bytes in the spent-set journal segments.
  std::uint64_t JournalBytes() const {
    std::uint64_t total = 0;
    for (const auto& e : fs::directory_iterator(journal_dir_)) {
      if (e.is_regular_file()) total += e.file_size();
    }
    return total;
  }

  core::P2drmSystem& system() { return *system_; }
  const std::vector<rel::ContentId>& catalog() const { return catalog_; }
  std::vector<std::unique_ptr<core::UserAgent>>& users() { return users_; }
  std::vector<std::unique_ptr<core::UserAgent>>& cheaters() { return cheaters_; }
  std::vector<std::vector<Holding>>& held() { return held_; }

 private:
  crypto::HmacDrbg rng_;
  std::string journal_dir_;
  std::unique_ptr<core::P2drmSystem> system_;
  net::ServiceRegistry ca_service_;
  net::ServiceRegistry ttp_service_;
  std::vector<rel::ContentId> catalog_;
  std::vector<std::unique_ptr<core::UserAgent>> users_;
  std::vector<std::unique_ptr<core::UserAgent>> cheaters_;
  std::vector<std::vector<Holding>> held_;
};

// ---- measurement -----------------------------------------------------------

/// What one measured phase observed.
struct Phase {
  std::vector<double> first_ms;   ///< purchase / exchange batch / give
  std::vector<double> second_ms;  ///< play / redeem batch / receive
  std::vector<double> cheat_ms;
  double ops = 0;  ///< purchases or transferred items
  double elapsed_us = 0;  ///< measured steps, warm-up excluded
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t cheats = 0;
  std::uint64_t cheats_caught = 0;
  std::uint64_t spent_expected = 0;  ///< fresh ids this phase spent
  double pseudonym_us = 0;
  double withdraw_us = 0;
  double fraud_us = 0;  ///< in ProcessFraud, once per cheat
  std::vector<std::string> errors;  ///< first few failure descriptions

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }

  /// Completed user ops per second over the measured phase.
  double OpsPerSecond() const { return Div(ops, elapsed_us) * 1e6; }
};

/// Counter snapshots taken at a phase's start and end.
struct Counters {
  core::OpCounters crypto;
  net::ChannelStats net;
  server::BatchVerifierStats verifier;
  std::uint64_t steals = 0;
  std::uint64_t pseudonyms = 0;
  std::uint64_t ttp_opened = 0;
  std::uint64_t evidence = 0;
  std::map<std::string, obs::Registry::MetricValue> registry;

  static Counters Take(Fixture* fx, const obs::Registry& registry) {
    Counters c;
    core::P2drmSystem& sys = fx->system();
    if (sys.cp().Runtime() != nullptr) sys.cp().Runtime()->Drain();
    c.crypto = core::AggregateOps();
    c.net = sys.transport().GrandTotal();
    c.verifier = sys.cp().BatchVerifyStats();
    c.steals = sys.cp().Pool() != nullptr ? sys.cp().Pool()->Steals() : 0;
    for (auto* group : {&fx->users(), &fx->cheaters()}) {
      for (auto& a : *group) c.pseudonyms += a->card().pseudonyms().size();
    }
    c.ttp_opened = sys.ttp().OpenedCount();
    c.evidence = sys.cp().DoubleRedemptionAttempts();
    for (auto& m : registry.Aggregate()) c.registry[m.name] = m;
    return c;
  }

  std::uint64_t Counter(const std::string& name) const {
    auto it = registry.find(name);
    return it == registry.end() ? 0 : it->second.counter;
  }
  std::uint64_t HistSum(const std::string& name) const {
    auto it = registry.find(name);
    return it == registry.end() ? 0 : it->second.hist.sum;
  }
};

class Bench {
 public:
  Bench(const Config& cfg, Fixture* fx, Probe* probe,
        const std::vector<std::vector<std::uint8_t>>* titles)
      : cfg_(cfg),
        fx_(fx),
        probe_(probe),
        titles_(titles),
        ops_rng_("p2drm-bench-ops"),
        zipf_(fx->catalog().size(), cfg.zipf_alpha) {
    ops_rng_.Reseed(SeedBytes(cfg.seed));
  }

  /// Runs untimed warm-up steps, then measured steps until the phase's
  /// time (or, in smoke mode, step) budget is spent.
  Phase Run(std::size_t warmup, double seconds) {
    Phase discard;
    for (std::size_t i = 0; i < warmup; ++i) Step(&discard);
    Phase phase;
    const double t0 = NowUs();
    for (std::size_t steps = 0;; ++steps) {
      if (cfg_.smoke_steps > 0 ? steps >= cfg_.smoke_steps
                               : NowUs() - t0 >= seconds * 1e6) {
        break;
      }
      Step(&phase);
    }
    phase.elapsed_us = NowUs() - t0;
    // Carry warm-up failures into the result: every op is checked.
    phase.attempted += discard.attempted;
    phase.failed += discard.failed;
    phase.spent_expected += discard.spent_expected;
    for (auto& e : discard.errors) {
      if (phase.errors.size() < 8) phase.errors.push_back(e);
    }
    return phase;
  }

 private:
  void Step(Phase* ph) {
    switch (cfg_.workload) {
      case Workload::kRetail:
        RetailStep(ph);
        break;
      case Workload::kTransferBatch:
        TransferBatchStep(ph);
        break;
      case Workload::kTransferSingle:
        TransferSingleStep(ph);
        break;
    }
  }

  /// One BuyContent under a fresh pseudonym, then a few Plays of it. The
  /// agent's own EnsurePseudonym and WithdrawCoins run first, exactly as
  /// BuyContent would run them, so each shows as its own span.
  void RetailStep(Phase* ph) {
    std::size_t u = Pick(&ops_rng_, fx_->users().size());
    std::size_t title = zipf_.Next(&ops_rng_);
    rel::ContentId content = fx_->catalog()[title];
    core::UserAgent& agent = *fx_->users()[u];
    std::uint64_t price = fx_->system().cp().FindOffer(content)->price;

    ph->attempted += 1;
    core::Status st = core::Status::kOk;
    rel::License lic;
    probe_->BeginOp(Op::kPurchase);
    core::Pseudonym* pseudonym = nullptr;
    ph->pseudonym_us += probe_->Span(Layer::kAgent, "agent.ensure_pseudonym",
                                     [&] { pseudonym = agent.EnsurePseudonym(); });
    std::uint64_t wallet = agent.WalletValue();
    if (wallet < price) {
      ph->withdraw_us += probe_->Span(Layer::kAgent, "agent.withdraw_coins", [&] {
        st = agent.WithdrawCoins(price - wallet);
      });
    }
    if (st == core::Status::kOk) {
      probe_->Span(Layer::kAgent, "agent.buy_content",
                   [&] { st = agent.BuyContent(content, &lic); });
    }
    double us = probe_->EndOp();
    if (pseudonym == nullptr || st != core::Status::kOk || lic.content_id != content) {
      ph->Fail(std::string("purchase: ") + core::StatusName(st));
      return;
    }
    ph->first_ms.push_back(us / 1000);
    ph->ops += 1;

    for (std::size_t p = 0; p < cfg_.plays_per_purchase; ++p) {
      ph->attempted += 1;
      core::UseResult r;
      probe_->BeginOp(Op::kPlay);
      probe_->Span(Layer::kAgent, "agent.play", [&] { r = agent.Play(content); });
      us = probe_->EndOp();
      if (r.decision != rel::Decision::kAllow ||
          r.plaintext != (*titles_)[title]) {
        ph->Fail("play: " + (r.error.empty() ? std::string("plaintext mismatch")
                                             : r.error));
        continue;
      }
      ph->second_ms.push_back(us / 1000);
    }
  }

  /// Index of a user holding at least \p need licenses, seeded-uniform
  /// among those that do.
  std::size_t PickHolder(std::size_t need) {
    std::vector<std::size_t> eligible;
    for (std::size_t u = 0; u < fx_->held().size(); ++u) {
      if (fx_->held()[u].size() >= need) eligible.push_back(u);
    }
    return eligible[Pick(&ops_rng_, eligible.size())];
  }

  std::size_t PickOther(std::size_t not_u) {
    std::size_t t = Pick(&ops_rng_, fx_->users().size() - 1);
    return t >= not_u ? t + 1 : t;
  }

  /// Removes \p n seeded-random holdings from user \p u's ledger entry.
  std::vector<Holding> TakeHoldings(std::size_t u, std::size_t n) {
    std::vector<Holding>& h = fx_->held()[u];
    std::vector<Holding> out;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t k = Pick(&ops_rng_, h.size());
      out.push_back(h[k]);
      h[k] = h.back();
      h.pop_back();
    }
    return out;
  }

  /// Post-hop ledger check: the giver's device no longer holds \p gone,
  /// the taker's holds \p got for the same title.
  bool CheckHop(core::UserAgent& giver, core::UserAgent& taker,
                const Holding& gone, const rel::License& got) {
    return giver.device().FindLicense(gone.id) == nullptr &&
           taker.device().FindLicense(got.id) != nullptr &&
           got.content_id == gone.content;
  }

  /// One batched hop: a holder exchanges `batch` licenses for bearers in
  /// one GiveLicenseBatch, another user redeems them all in one
  /// ReceiveLicenseBatch.
  void TransferBatchStep(Phase* ph) {
    std::size_t g = PickHolder(cfg_.batch);
    std::size_t t = PickOther(g);
    std::vector<Holding> moving = TakeHoldings(g, cfg_.batch);
    std::vector<rel::LicenseId> ids;
    for (const Holding& h : moving) ids.push_back(h.id);
    core::UserAgent& giver = *fx_->users()[g];
    core::UserAgent& taker = *fx_->users()[t];

    ph->attempted += 2 * ids.size();
    std::vector<std::vector<std::uint8_t>> bearers;
    std::vector<core::Status> st;
    probe_->BeginOp(Op::kExchangeBatch);
    probe_->Span(Layer::kAgent, "agent.give_batch",
                 [&] { st = giver.GiveLicenseBatch(ids, &bearers); });
    double us = probe_->EndOp();
    bool ok = true;
    for (std::size_t i = 0; i < st.size(); ++i) {
      if (st[i] == core::Status::kOk) ph->spent_expected += 1;
      if (st[i] != core::Status::kOk || bearers[i].empty()) {
        ph->Fail(std::string("exchange batch item: ") + core::StatusName(st[i]));
        ok = false;
      }
    }
    if (!ok) return;
    ph->first_ms.push_back(us / 1000);

    std::vector<rel::License> got;
    probe_->BeginOp(Op::kRedeemBatch);
    probe_->Span(Layer::kAgent, "agent.receive_batch",
                 [&] { st = taker.ReceiveLicenseBatch(bearers, &got); });
    us = probe_->EndOp();
    ok = true;
    for (std::size_t i = 0; i < st.size(); ++i) {
      if (st[i] == core::Status::kOk) ph->spent_expected += 1;
      if (st[i] != core::Status::kOk || !CheckHop(giver, taker, moving[i], got[i])) {
        ph->Fail(std::string("redeem batch item: ") + core::StatusName(st[i]));
        ok = false;
        continue;
      }
      fx_->held()[t].push_back({got[i].id, got[i].content_id});
    }
    if (!ok) return;
    ph->second_ms.push_back(us / 1000);
    ph->ops += ids.size();
  }

  /// One single-item hop (GiveLicense -> ReceiveLicense); about one hop
  /// in cheat_one_in also hands the bearer to a cheating taker, whose
  /// redemption must be refused and whose escrow the TTP must open.
  void TransferSingleStep(Phase* ph) {
    std::size_t g = PickHolder(1);
    std::size_t t = PickOther(g);
    Holding moving = TakeHoldings(g, 1)[0];
    core::UserAgent& giver = *fx_->users()[g];
    core::UserAgent& taker = *fx_->users()[t];
    bool cheat = Pick(&ops_rng_, cfg_.cheat_one_in) == 0;

    ph->attempted += 2;
    std::vector<std::uint8_t> bearer;
    core::Status st = core::Status::kOk;
    probe_->BeginOp(Op::kGive);
    probe_->Span(Layer::kAgent, "agent.give",
                 [&] { st = giver.GiveLicense(moving.id, &bearer); });
    double us = probe_->EndOp();
    if (st != core::Status::kOk) {
      ph->Fail(std::string("give: ") + core::StatusName(st));
      return;
    }
    ph->spent_expected += 1;
    ph->first_ms.push_back(us / 1000);

    rel::License got;
    probe_->BeginOp(Op::kReceive);
    probe_->Span(Layer::kAgent, "agent.receive",
                 [&] { st = taker.ReceiveLicense(bearer, &got); });
    us = probe_->EndOp();
    if (st == core::Status::kOk) ph->spent_expected += 1;
    if (st != core::Status::kOk || !CheckHop(giver, taker, moving, got)) {
      ph->Fail(std::string("receive: ") + core::StatusName(st));
      return;
    }
    fx_->held()[t].push_back({got.id, got.content_id});
    ph->second_ms.push_back(us / 1000);
    ph->ops += 1;

    if (cheat) Cheat(ph, bearer);
  }

  void Cheat(Phase* ph, const std::vector<std::uint8_t>& bearer) {
    core::UserAgent& cheater =
        *fx_->cheaters()[ph->cheats % fx_->cheaters().size()];
    ph->cheats += 1;
    ph->attempted += 1;
    core::Status st = core::Status::kOk;
    std::vector<std::uint64_t> opened;
    core::Pseudonym* pseudonym = nullptr;
    probe_->BeginOp(Op::kCheat);
    ph->pseudonym_us += probe_->Span(Layer::kAgent, "agent.ensure_pseudonym",
                                     [&] { pseudonym = cheater.EnsurePseudonym(); });
    probe_->Span(Layer::kAgent, "agent.receive",
                 [&] { st = cheater.ReceiveLicense(bearer); });
    ph->fraud_us += probe_->Span(Layer::kCp, "system.process_fraud",
                                 [&] { opened = fx_->system().ProcessFraud(); });
    double us = probe_->EndOp();
    ph->cheat_ms.push_back(us / 1000);
    if (pseudonym == nullptr) {
      ph->Fail("cheat: no pseudonym");
      return;
    }
    // The revoked pseudonym is dead; the cheater's card mints a fresh one
    // for its next attempt.
    pseudonym->purchases_used = 1;
    if (st != core::Status::kAlreadySpent) {
      ph->Fail(std::string("double redemption not refused: ") +
               core::StatusName(st));
      return;
    }
    if (opened.size() != 1 || opened[0] != cheater.card().CardId() ||
        !fx_->system().cp().Crl().IsRevoked(pseudonym->cert.KeyId())) {
      ph->Fail("fraud evidence did not open to the cheating card");
      return;
    }
    ph->cheats_caught += 1;
  }

  const Config& cfg_;
  Fixture* fx_;
  Probe* probe_;
  const std::vector<std::vector<std::uint8_t>>* titles_;
  crypto::HmacDrbg ops_rng_;
  sim::ZipfGenerator zipf_;
};

/// End-of-phase invariants: every ledger entry is on its holder's device,
/// the number in circulation is unchanged, and the spent set grew by
/// exactly the fresh ids the phase spent.
void CheckInvariants(Fixture* fx, std::size_t circulating,
                     std::uint64_t spent_before, Phase* ph) {
  std::size_t count = 0;
  bool on_device = true;
  for (std::size_t u = 0; u < fx->held().size(); ++u) {
    for (const Holding& h : fx->held()[u]) {
      ++count;
      if (fx->users()[u]->device().FindLicense(h.id) == nullptr) on_device = false;
    }
  }
  ph->attempted += 2;
  if (count != circulating || !on_device) ph->Fail("licenses not conserved");
  std::uint64_t grew = fx->system().cp().SpentSetSize() - spent_before;
  if (grew != ph->spent_expected) {
    ph->Fail("spent set grew by " + std::to_string(grew) + ", expected " +
             std::to_string(ph->spent_expected));
  }
}

std::size_t Circulating(Fixture* fx) {
  std::size_t n = 0;
  for (auto& h : fx->held()) n += h.size();
  return n;
}

/// What the workload's first and second op are, and the tail percentile
/// the report gives each under its op name (the end-to-end metrics gate
/// p90 on every workload).
struct Roles {
  Op first;
  Op second;
  double first_tail;
  double second_tail;
};
Roles RolesFor(Workload w) {
  switch (w) {
    case Workload::kRetail:
      return {Op::kPurchase, Op::kPlay, 95, 99};
    case Workload::kTransferBatch:
      return {Op::kExchangeBatch, Op::kRedeemBatch, 90, 90};
    case Workload::kTransferSingle:
      return {Op::kGive, Op::kReceive, 99, 99};
  }
  return {Op::kPurchase, Op::kPlay, 99, 99};
}

std::string PctName(double p) { return "p" + std::to_string(static_cast<int>(p)); }

void AddLayerMetrics(Fixture* fx, const Probe& probe,
                     const Phase& ph, const Counters& a, const Counters& b,
                     double untraced_ops_per_s, double traced_ops_per_s,
                     MetricList* m) {
  const double ops = ph.ops;
  auto per_op = [&](double v) { return Div(v, ops); };
  auto ms_per = [](double us, double n) { return Div(us, n) / 1000; };

  std::uint64_t minted = b.pseudonyms - a.pseudonyms;
  m->Add("core.agent.pseudonym_ms", per_op(ph.pseudonym_us) / 1000, "ms");
  m->Add("core.agent.pseudonyms_per_op", per_op(minted), "count");
  m->Add("core.agent.withdraw_ms", per_op(ph.withdraw_us) / 1000, "ms");
  double ca_us = 0, ca_calls = 0, bank_us = 0, bank_calls = 0;
  for (int o = 0; o < static_cast<int>(Op::kCount); ++o) {
    const auto& t = probe.Totals(static_cast<Op>(o));
    ca_us += t.layers[static_cast<int>(Layer::kCa)].total_us;
    ca_calls += t.layers[static_cast<int>(Layer::kCa)].calls;
    bank_us += t.layers[static_cast<int>(Layer::kBank)].total_us;
    bank_calls += t.layers[static_cast<int>(Layer::kBank)].calls;
  }
  m->Add("core.ca.pseudonym_sign_ms", ms_per(ca_us, ca_calls), "ms");
  m->Add("core.bank.withdraw_ms", ms_per(bank_us, bank_calls), "ms");
  m->Add("core.bank.coins_per_op", per_op(bank_calls), "count");

  const Op reported[] = {Op::kPurchase,      Op::kPlay,
                         Op::kGive,          Op::kReceive,
                         Op::kExchangeBatch, Op::kRedeemBatch};
  for (Op op : reported) {
    const auto& t = probe.Totals(op);
    m->Add(std::string("core.agent.self_ms.") + OpName(op),
           ms_per(t.layers[static_cast<int>(Layer::kAgent)].self_us, t.count), "ms");
  }
  const char* cp_names[] = {"purchase", "fetch_content",  "exchange",
                            "redeem",   "exchange_batch", "redeem_batch"};
  for (int i = 0; i < 6; ++i) {
    const auto& t = probe.Totals(reported[i]);
    m->Add(std::string("core.cp.dispatch_ms.") + cp_names[i],
           ms_per(t.layers[static_cast<int>(Layer::kCp)].total_us, t.count), "ms");
  }

  m->Add("core.ttp.process_fraud_ms", ms_per(ph.fraud_us, ph.cheats), "ms");
  m->Add("core.ttp.opened", static_cast<double>(b.ttp_opened - a.ttp_opened), "count");
  m->Add("core.ttp.evidence", static_cast<double>(b.evidence - a.evidence), "count");

  m->Add("net.msgs_per_op", per_op(static_cast<double>(b.net.messages - a.net.messages)),
         "count");
  m->Add("net.bytes_per_op", per_op(static_cast<double>(b.net.bytes - a.net.bytes)), "B");

  // Certificate lookups happen once per batched redeem or purchase item.
  double pipeline_items = 0;
  double cert_lookups = 0;
  for (const std::string flow : {"purchase", "exchange", "redeem"}) {
    std::string base = "pipeline." + flow + ".";
    double items = static_cast<double>(b.Counter(base + "items") - a.Counter(base + "items"));
    pipeline_items += items;
    if (flow != "exchange") cert_lookups += items;
    for (const char* stage : {"verify", "mutate", "issue"}) {
      double us = static_cast<double>(b.HistSum(base + stage + "_us") -
                                      a.HistSum(base + stage + "_us"));
      m->Add("server.pipeline." + flow + "." + stage + "_us_per_item",
             Div(us, items), "us");
    }
    m->Add("server.pipeline." + flow + ".shed",
           static_cast<double>(b.Counter(base + "shed") - a.Counter(base + "shed")),
           "count");
  }

  server::BatchVerifierStats v = b.verifier - a.verifier;
  m->Add("server.verifier.full_verifies_per_item",
         Div(static_cast<double>(v.full_verifies), pipeline_items), "count");
  m->Add("server.verifier.cert_cache_hit_frac",
         Div(static_cast<double>(v.cert_cache_hits), cert_lookups), "frac");
  m->Add("server.signer_pool.steals", static_cast<double>(b.steals - a.steals), "count");

  core::P2drmSystem& sys = fx->system();
  double spent = static_cast<double>(sys.cp().SpentSetSize());
  double spent_bytes = sys.cp().Runtime() != nullptr
                           ? static_cast<double>(sys.cp().Runtime()->SpentMemoryBytes())
                           : 0;
  m->Add("store.spent_ids", spent, "count");
  m->Add("store.spent_bytes_per_id", Div(spent_bytes, spent), "B");
  m->Add("store.journal_bytes_per_id",
         Div(static_cast<double>(fx->JournalBytes()), spent), "B");
  m->Add("store.crl_entries", static_cast<double>(sys.cp().Crl().Size()), "count");

  core::OpCounters c = b.crypto - a.crypto;
  m->Add("crypto.ops_per_op.sign", per_op(c.sign), "count");
  m->Add("crypto.ops_per_op.verify", per_op(c.verify), "count");
  m->Add("crypto.ops_per_op.blind_sign", per_op(c.blind_sign), "count");
  m->Add("crypto.ops_per_op.blind_prep", per_op(c.blind_prep), "count");
  m->Add("crypto.ops_per_op.hyb_enc", per_op(c.hybrid_enc), "count");
  m->Add("crypto.ops_per_op.hyb_dec", per_op(c.hybrid_dec), "count");
  m->Add("crypto.ops_per_op.keygen", per_op(c.keygen), "count");

  for (Op op : reported) {
    const auto& t = probe.Totals(op);
    m->Add(std::string("trace.unattributed_frac.") + OpName(op),
           Div(t.layers[static_cast<int>(Layer::kOp)].self_us, t.op_us), "frac");
  }
  m->Add("trace.overhead_frac", Div(untraced_ops_per_s, traced_ops_per_s) - 1, "frac");
}

int Usage() {
  std::fprintf(stderr,
               "usage: p2drm_bench --workload <retail|transfer_batch|"
               "transfer_single> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>] [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      std::string w = next();
      have_workload = true;
      if (w == "retail") {
        cfg.workload = Workload::kRetail;
      } else if (w == "transfer_batch") {
        cfg.workload = Workload::kTransferBatch;
      } else if (w == "transfer_single") {
        cfg.workload = Workload::kTransferSingle;
      } else {
        return Usage();
      }
    } else if (a == "--seed") {
      cfg.seed = std::stoull(next());
    } else if (a == "--seconds") {
      cfg.seconds = std::stod(next());
    } else if (a == "--trace") {
      cfg.trace = next() == "1";
    } else if (a == "--out") {
      cfg.out_dir = next();
    } else if (a == "--smoke") {
      cfg.ApplySmoke();
    } else {
      return Usage();
    }
  }
  if (!have_workload || cfg.seconds <= 0) return Usage();
  fs::create_directories(cfg.out_dir);

  std::vector<std::vector<std::uint8_t>> titles;
  for (std::size_t i = 0; i < cfg.catalog; ++i) {
    titles.push_back(TitleBytes(i, cfg.content_bytes));
  }
  const std::string tag = std::string(WorkloadName(cfg.workload)) + "_seed" +
                          std::to_string(cfg.seed) + "_trace" +
                          (cfg.trace ? "1" : "0");
  const std::string journal_base =
      cfg.out_dir + "/journal-" + std::to_string(::getpid());

  // Traced runs carry a registry and tracer from construction on (the
  // signer pool takes its observability wiring before any traffic), both
  // switched off until the traced phase.
  obs::Registry registry;
  obs::Tracer tracer(1 << 18);
  obs::Sink sink;
  if (cfg.trace) {
    registry.set_enabled(false);
    tracer.set_enabled(false);
    sink = {&tracer, &registry};
  }

  // Setup, timed. All but the last fixture are torn down again.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  const std::size_t setups = cfg.trace ? 1 : cfg.setups;
  for (std::size_t k = 0; k < setups; ++k) {
    fx.reset();
    double t0 = NowUs();
    fx = std::make_unique<Fixture>(cfg, titles,
                                   journal_base + "-" + std::to_string(k), sink);
    setup_s.push_back((NowUs() - t0) / 1e6);
  }
  fx->Reseed(cfg.seed);

  Probe probe;
  Bench bench(cfg, fx.get(), &probe, &titles);
  const std::size_t circulating = Circulating(fx.get());

  // Untraced phase: the end-to-end numbers (and, in a traced run, the
  // baseline for trace.overhead_frac).
  std::uint64_t spent0 = fx->system().cp().SpentSetSize();
  Phase ph = bench.Run(cfg.warmup_steps, cfg.seconds);
  CheckInvariants(fx.get(), circulating, spent0, &ph);
  const double untraced_ops_per_s = ph.OpsPerSecond();

  Phase traced;
  MetricList layer_metrics;
  if (cfg.trace) {
    fx->Interpose(&probe);
    probe.Enable(&tracer);
    registry.set_enabled(true);
    tracer.set_enabled(true);
    Counters before = Counters::Take(fx.get(), registry);
    probe.ResetTotals();
    std::uint64_t spent1 = fx->system().cp().SpentSetSize();
    traced = bench.Run(0, cfg.seconds);
    tracer.set_enabled(false);
    Counters after = Counters::Take(fx.get(), registry);
    CheckInvariants(fx.get(), circulating, spent1, &traced);
    AddLayerMetrics(fx.get(), probe, traced, before, after,
                    untraced_ops_per_s, traced.OpsPerSecond(),
                    &layer_metrics);
    std::string events;
    bool first = true;
    tracer.AppendChromeTraceEvents(&events, 1, "p2drm_bench", &first);
    obs::Tracer::WriteChromeTraceFile(cfg.out_dir + "/trace_" + tag + ".json",
                                      events);
  }

  const std::uint64_t attempted = ph.attempted + traced.attempted;
  const std::uint64_t failed = ph.failed + traced.failed;
  const Roles roles = RolesFor(cfg.workload);

  MetricList e2e;
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("rss_mb", PeakRssMb(), "MB");
  e2e.Add("ops_per_s", untraced_ops_per_s, "1/s");
  e2e.Add("first_op_p90_ms", Percentile(ph.first_ms, 90), "ms");
  e2e.Add("second_op_p90_ms", Percentile(ph.second_ms, 90), "ms");

  // Human-readable summary and the full report file.
  std::string first_name = OpName(roles.first);
  std::string second_name = OpName(roles.second);
  MetricList named;
  named.Add(first_name + "_p50_ms", Percentile(ph.first_ms, 50), "ms");
  named.Add(first_name + "_p90_ms", Percentile(ph.first_ms, 90), "ms");
  if (roles.first_tail != 90) {
    named.Add(first_name + "_" + PctName(roles.first_tail) + "_ms",
              Percentile(ph.first_ms, roles.first_tail), "ms");
  }
  named.Add(first_name + "_n", static_cast<double>(ph.first_ms.size()), "count");
  named.Add(second_name + "_p50_ms", Percentile(ph.second_ms, 50), "ms");
  named.Add(second_name + "_p90_ms", Percentile(ph.second_ms, 90), "ms");
  if (roles.second_tail != 90) {
    named.Add(second_name + "_" + PctName(roles.second_tail) + "_ms",
              Percentile(ph.second_ms, roles.second_tail), "ms");
  }
  named.Add(second_name + "_n", static_cast<double>(ph.second_ms.size()), "count");
  named.Add("failed_frac", Div(static_cast<double>(failed), attempted), "frac");
  named.Add("ops", ph.ops, "count");
  named.Add("cheats_planted", static_cast<double>(ph.cheats + traced.cheats), "count");
  named.Add("cheats_opened_to_cheater",
            static_cast<double>(ph.cheats_caught + traced.cheats_caught), "count");
  named.Add("cheat_p50_ms", Percentile(ph.cheat_ms, 50), "ms");

  std::string config = "{";
  auto cfg_item = [&](const std::string& k, const std::string& v) {
    if (config.size() > 1) config += ", ";
    config += JsonString(k) + ": " + v;
  };
  cfg_item("workload", JsonString(WorkloadName(cfg.workload)));
  cfg_item("seed", std::to_string(cfg.seed));
  cfg_item("seconds", Num(cfg.seconds));
  cfg_item("trace", cfg.trace ? "1" : "0");
  cfg_item("smoke", cfg.smoke ? "true" : "false");
  cfg_item("nproc", std::to_string(std::thread::hardware_concurrency()));
  cfg_item("cpu_model", JsonString(CpuModel()));
  cfg_item("server_key_bits", std::to_string(cfg.server_bits));
  cfg_item("client_key_bits", std::to_string(cfg.client_bits));
  cfg_item("users", std::to_string(cfg.users));
  cfg_item("cheaters", std::to_string(cfg.workload == Workload::kTransferSingle
                                          ? cfg.cheaters : 0));
  cfg_item("catalog_titles", std::to_string(cfg.catalog));
  cfg_item("content_bytes", std::to_string(cfg.content_bytes));
  cfg_item("zipf_alpha", Num(cfg.zipf_alpha));
  cfg_item("redeem_shards", std::to_string(cfg.redeem_shards));
  cfg_item("signer_pool_size", std::to_string(cfg.signer_pool_size));
  cfg_item("deposit_shards", std::to_string(cfg.deposit_shards));
  cfg_item("batch_items", std::to_string(cfg.batch));
  cfg_item("plays_per_purchase", std::to_string(cfg.plays_per_purchase));
  cfg_item("circulating_licenses", std::to_string(circulating));
  cfg_item("cheat_share", Num(1.0 / cfg.cheat_one_in));
  cfg_item("pseudonym_max_uses",
           cfg.workload == Workload::kRetail ? "1" : "\"long-lived\"");
  cfg_item("latency_model_us", "0");
  cfg_item("journal", JsonString("on, fresh directory per setup, removed at exit; "
                                 "AppendLog writes without fsync"));
  cfg_item("load_model", JsonString("closed loop, one client thread"));
  cfg_item("setups", std::to_string(setups));
  cfg_item("warmup_steps", std::to_string(cfg.warmup_steps));
  config += "}";

  std::string errors = "[";
  for (const auto* p : {&ph, &traced}) {
    for (const auto& e : p->errors) {
      if (errors.size() > 1) errors += ", ";
      errors += JsonString(e);
    }
  }
  errors += "]";
  auto samples = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Num(v[i]);
    return out + "]";
  };
  {
    std::ofstream rep(cfg.out_dir + "/report_" + tag + ".json");
    rep << "{\"config\": " << config << ", \"end_to_end\": " << e2e.Json()
        << ", \"named\": " << named.Json()
        << ", \"per_layer\": " << layer_metrics.Json()
        << ", \"errors\": " << errors << ", \"samples_ms\": {"
        << JsonString(first_name) << ": " << samples(ph.first_ms) << ", "
        << JsonString(second_name) << ": " << samples(ph.second_ms) << "}}\n";
  }

  std::printf("p2drm_bench %s seed=%llu: %s\n", WorkloadName(cfg.workload),
              static_cast<unsigned long long>(cfg.seed), config.c_str());
  for (const auto& it : named.items) {
    std::printf("  %-28s %14.4f %s\n", it.first.c_str(), it.second.first,
                it.second.second.c_str());
  }
  for (const auto* p : {&ph, &traced}) {
    for (const auto& e : p->errors) std::printf("  FAILED: %s\n", e.c_str());
  }

  const MetricList& out = cfg.trace ? layer_metrics : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), out.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2drm_bench: %s\n", e.what());
    return 1;
  }
}
