#include "hivemind/matchmaking.h"

#include <memory>
#include <set>

#include "common/strings.h"
#include "telemetry/telemetry.h"

namespace hivesim::hivemind {

Matchmaker::Matchmaker(dht::DhtNetwork* dht, std::string run_id)
    : dht_(dht), run_id_(std::move(run_id)) {}

dht::Key Matchmaker::AnnouncementKey(int epoch, net::NodeId node) const {
  return dht::KeyFromString(StrCat("mm/", run_id_, "/", epoch, "/", node));
}

void Matchmaker::FormGroup(const std::vector<net::NodeId>& peers, int epoch,
                           double window_sec,
                           std::function<void(GroupResult)> done) {
  struct RoundState {
    double started_at = 0;
    bool finished = false;
    int lookups_pending = 0;
    // Per-seeker set of announcements found; the group is assembled when
    // every seeker saw every online announcer.
    std::set<net::NodeId> online;
    int min_discovered = 0;
    std::function<void(GroupResult)> done;
  };
  auto state = std::make_shared<RoundState>();
  state->started_at = dht_->simulator().Now();
  state->done = std::move(done);

  std::vector<dht::Node*> online_nodes;
  for (net::NodeId node : peers) {
    dht::Node* dht_node = dht_->NodeAt(node);
    if (dht_node != nullptr && dht_node->online()) {
      online_nodes.push_back(dht_node);
      state->online.insert(node);
    }
  }

  auto finish = [this, state](bool timed_out) {
    if (state->finished) return;
    state->finished = true;
    GroupResult result;
    result.assembly_sec = dht_->simulator().Now() - state->started_at;
    result.discovered = static_cast<int>(state->online.size());
    result.timed_out = timed_out;
    if (telemetry::Enabled()) {
      telemetry::Count("mm.rounds");
      if (timed_out) telemetry::Count("mm.timeouts");
      std::string args = "{\"discovered\":";
      AppendInt(&args, result.discovered);
      args += timed_out ? ",\"timed_out\":true}" : ",\"timed_out\":false}";
      telemetry::Span(state->started_at, dht_->simulator().Now(), "trainer",
                      "matchmake", std::move(args));
    }
    state->done(result);
  };

  if (online_nodes.size() < 2) {
    // Nothing to form; report immediately (zero assembly time).
    dht_->simulator().Schedule(0, [finish] { finish(false); });
    return;
  }

  // Window guard: Hivemind proceeds with whoever it found.
  dht_->simulator().Schedule(window_sec, [finish] { finish(true); });

  // Phase 1: every online peer announces itself (TTL spans the window).
  auto announced = std::make_shared<int>(0);
  const int announcers = static_cast<int>(online_nodes.size());
  for (dht::Node* node : online_nodes) {
    node->Store(AnnouncementKey(epoch, node->endpoint()), "ready",
                window_sec * 4,
                [this, state, announced, announcers, online_nodes, epoch,
                 finish](Status) {
                  if (++*announced < announcers || state->finished) return;
                  // Phase 2: everyone looks up everyone.
                  state->lookups_pending = announcers * (announcers - 1);
                  for (dht::Node* seeker : online_nodes) {
                    for (dht::Node* target : online_nodes) {
                      if (seeker == target) continue;
                      seeker->Get(
                          AnnouncementKey(epoch, target->endpoint()),
                          [state, finish](Result<std::string>) {
                            if (state->finished) return;
                            if (--state->lookups_pending == 0) {
                              finish(false);
                            }
                          });
                    }
                  }
                });
  }
}

}  // namespace hivesim::hivemind
