#include "dht/dht.h"

#include <algorithm>
#include <memory>
#include <set>

#include "common/logging.h"
#include "common/strings.h"
#include "telemetry/telemetry.h"

namespace hivesim::dht {

namespace {
// Kademlia tunables.
constexpr int kBucketSize = 8;          // Bucket size and replication (k).
constexpr int kAlpha = 3;               // Lookup parallelism.
constexpr double kRpcBytes = 256;       // Approximate size of one RPC.
constexpr double kRpcTimeoutSec = 2.0;  // Unanswered RPCs count as failed.

int BucketIndex(Key distance) {
  // Position of the highest set bit; distance 0 never reaches here.
  return 63 - __builtin_clzll(distance);
}
}  // namespace

Key KeyFromString(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a 64.
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Node* DhtNetwork::CreateNode(net::NodeId endpoint, Key id) {
  auto node = std::unique_ptr<Node>(new Node(this, endpoint, id));
  Node* ptr = node.get();
  nodes_[endpoint] = std::move(node);
  return ptr;
}

Node* DhtNetwork::NodeAt(net::NodeId endpoint) {
  auto it = nodes_.find(endpoint);
  return it == nodes_.end() ? nullptr : it->second.get();
}

Node::Node(DhtNetwork* dht, net::NodeId endpoint, Key id)
    : dht_(dht), endpoint_(endpoint), id_(id), buckets_(64) {}

void Node::Touch(const Contact& contact) {
  if (contact.id == id_) return;
  const int idx = BucketIndex(Distance(id_, contact.id));
  auto& bucket = buckets_[idx];
  auto it = std::find_if(bucket.begin(), bucket.end(), [&](const Contact& c) {
    return c.id == contact.id;
  });
  if (it != bucket.end()) {
    // Move to the most-recently-seen end.
    Contact c = *it;
    bucket.erase(it);
    bucket.push_back(c);
    return;
  }
  if (static_cast<int>(bucket.size()) < kBucketSize) {
    bucket.push_back(contact);
  }
  // Full bucket: Kademlia would ping the LRU entry; we keep the old
  // (long-lived peers are the most reliable) and drop the newcomer.
}

std::vector<Contact> Node::ClosestContacts(Key target, int count) const {
  std::vector<Contact> all;
  for (const auto& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  std::sort(all.begin(), all.end(), [target](const Contact& a,
                                             const Contact& b) {
    return Distance(a.id, target) < Distance(b.id, target);
  });
  if (static_cast<int>(all.size()) > count) all.resize(count);
  return all;
}

void Node::ExpireValues() {
  const double now = dht_->simulator().Now();
  for (auto it = store_.begin(); it != store_.end();) {
    if (it->second.expires_at <= now) {
      it = store_.erase(it);
    } else {
      ++it;
    }
  }
}

// hivesim-lint: allow(U1) reason=test observer: dht_test finds the replica to kill through it
size_t Node::stored_values() const {
  size_t live = 0;
  const double now = dht_->simulator().Now();
  for (const auto& [key, v] : store_) {
    if (v.expires_at > now) ++live;
  }
  return live;
}

// hivesim-lint: allow(U1) reason=test observer: dht_test checks that bootstrap fills the routing tables through it
std::vector<Contact> Node::KnownContacts() const {
  std::vector<Contact> all;
  for (const auto& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  return all;
}

// --- Server-side handlers ---

std::vector<Contact> Node::HandleFindNode(const Contact& from, Key target) {
  Touch(from);
  return ClosestContacts(target, kBucketSize);
}

void Node::HandleStore(const Contact& from, Key key, std::string value,
                       double ttl_sec) {
  Touch(from);
  ExpireValues();
  store_[key] = StoredValue{std::move(value),
                            dht_->simulator().Now() + ttl_sec};
}

std::pair<std::optional<std::string>, std::vector<Contact>>
Node::HandleFindValue(const Contact& from, Key key) {
  Touch(from);
  ExpireValues();
  auto it = store_.find(key);
  if (it != store_.end()) {
    return {it->second.value, {}};
  }
  return {std::nullopt, ClosestContacts(key, kBucketSize)};
}

// --- Client-side RPCs ---

void Node::RpcLookup(const Contact& peer, Key target, bool want_value,
                     std::function<void(bool, std::optional<std::string>,
                                        std::vector<Contact>)>
                         on_reply) {
  auto replied = std::make_shared<bool>(false);
  sim::Simulator& sim = dht_->simulator();

  // Timeout guard.
  sim.Schedule(kRpcTimeoutSec, [replied, on_reply] {
    if (!*replied) {
      *replied = true;
      telemetry::Count("dht.rpc_timeouts");
      on_reply(false, std::nullopt, {});
    }
  });

  const Contact self{id_, endpoint_};
  Status sent = dht_->network().SendMessage(
      endpoint_, peer.node, kRpcBytes,
      [this, peer, target, want_value, self, replied, on_reply] {
        Node* server = dht_->NodeAt(peer.node);
        if (server == nullptr || !server->online()) return;  // Timeout path.
        std::optional<std::string> value;
        std::vector<Contact> contacts;
        if (want_value) {
          auto [v, c] = server->HandleFindValue(self, target);
          value = std::move(v);
          contacts = std::move(c);
        } else {
          contacts = server->HandleFindNode(self, target);
        }
        const double reply_bytes = kRpcBytes + (value ? value->size() : 0);
        dht_->network()
            .SendMessage(peer.node, endpoint_, reply_bytes,
                         [this, replied, on_reply, value = std::move(value),
                          contacts = std::move(contacts)]() mutable {
                           if (*replied || !online_) return;
                           *replied = true;
                           on_reply(true, std::move(value),
                                    std::move(contacts));
                         })
            .ok();
      });
  if (!sent.ok() && !*replied) {
    *replied = true;
    on_reply(false, std::nullopt, {});
  }
}

void Node::RpcStore(const Contact& peer, Key key, const std::string& value,
                    double ttl_sec, std::function<void(bool)> on_reply) {
  if (peer.node == endpoint_) {
    HandleStore(Contact{id_, endpoint_}, key, value, ttl_sec);
    on_reply(true);
    return;
  }
  auto replied = std::make_shared<bool>(false);
  sim::Simulator& sim = dht_->simulator();
  sim.Schedule(kRpcTimeoutSec, [replied, on_reply] {
    if (!*replied) {
      *replied = true;
      on_reply(false);
    }
  });
  const Contact self{id_, endpoint_};
  dht_->network()
      .SendMessage(endpoint_, peer.node, kRpcBytes + value.size(),
                   [this, peer, key, value, ttl_sec, self, replied,
                    on_reply] {
                     Node* server = dht_->NodeAt(peer.node);
                     if (server == nullptr || !server->online()) return;
                     server->HandleStore(self, key, value, ttl_sec);
                     dht_->network()
                         .SendMessage(peer.node, endpoint_, kRpcBytes,
                                      [this, replied, on_reply] {
                                        if (*replied || !online_) return;
                                        *replied = true;
                                        on_reply(true);
                                      })
                         .ok();
                   })
      .ok();
}

// --- Iterative lookup ---

void Node::IterativeLookup(Key target, bool want_value,
                           GetCallback value_done,
                           ContactsCallback contacts_done) {
  struct LookupState {
    Key target;
    bool want_value;
    double started_at = 0;
    // Distance-ordered candidate set.
    std::map<Key, Contact> shortlist;
    std::set<Key> queried;
    std::set<Key> responded;
    int inflight = 0;
    bool finished = false;
    GetCallback value_done;
    ContactsCallback contacts_done;
  };
  auto state = std::make_shared<LookupState>();
  state->target = target;
  state->want_value = want_value;
  state->started_at = dht_->simulator().Now();
  telemetry::Count("dht.lookups");
  state->value_done = std::move(value_done);
  state->contacts_done = std::move(contacts_done);
  for (const Contact& c : ClosestContacts(target, kBucketSize)) {
    state->shortlist.emplace(Distance(c.id, target), c);
  }

  auto finish = [this, state](std::optional<std::string> value) {
    if (state->finished) return;
    state->finished = true;
    if (telemetry::Enabled()) {
      const int hops = static_cast<int>(state->queried.size());
      telemetry::Observe("dht.lookup_hops", hops);
      std::string args = "{\"hops\":";
      AppendInt(&args, hops);
      args += value.has_value() ? ",\"found\":true}" : ",\"found\":false}";
      telemetry::Span(state->started_at, dht_->simulator().Now(), "dht",
                      state->want_value ? "dht.get" : "dht.find",
                      std::move(args));
      if (state->want_value && !value.has_value()) {
        telemetry::Count("dht.lookup_misses");
      }
    }
    if (state->want_value) {
      if (value.has_value()) {
        state->value_done(std::move(*value));
      } else {
        state->value_done(Status::NotFound("key not found in DHT"));
      }
      return;
    }
    std::vector<Contact> result;
    for (const auto& [dist, c] : state->shortlist) {
      if (state->responded.count(c.id)) {
        result.push_back(c);
        if (static_cast<int>(result.size()) >= kBucketSize) break;
      }
    }
    state->contacts_done(std::move(result));
  };

  // FIND_VALUE checks the local store first.
  if (want_value) {
    ExpireValues();
    auto it = store_.find(target);
    if (it != store_.end()) {
      // Deliver asynchronously for uniform callback timing.
      dht_->simulator().Schedule(0, [finish, v = it->second.value]() mutable {
        finish(std::move(v));
      });
      return;
    }
  }

  // Shared stepper: issue queries to the alpha closest unqueried. The
  // body must not capture `step` strongly (the function would hold a
  // shared_ptr to itself and leak); the kickoff event and each pending
  // RPC callback own the strong references, so the stepper lives exactly
  // as long as the lookup can still make progress.
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, state, finish,
           weak_step = std::weak_ptr<std::function<void()>>(step)] {
    if (state->finished) return;
    auto step = weak_step.lock();
    if (!step) return;
    int issued = 0;
    for (const auto& [dist, contact] : state->shortlist) {
      if (state->inflight + issued >= kAlpha) break;
      if (state->queried.count(contact.id)) continue;
      state->queried.insert(contact.id);
      ++issued;
      ++state->inflight;
      RpcLookup(contact, state->target, state->want_value,
                [this, state, finish, step, contact](
                    bool ok, std::optional<std::string> value,
                    std::vector<Contact> contacts) {
                  --state->inflight;
                  if (state->finished) return;
                  if (ok) {
                    state->responded.insert(contact.id);
                    Touch(contact);
                    if (state->want_value && value.has_value()) {
                      finish(std::move(value));
                      return;
                    }
                    for (const Contact& c : contacts) {
                      if (c.id == id_) continue;
                      Touch(c);
                      state->shortlist.emplace(Distance(c.id, state->target),
                                               c);
                    }
                  }
                  (*step)();
                });
    }
    if (issued == 0 && state->inflight == 0) {
      finish(std::nullopt);
    }
  };
  // Kick off asynchronously so the caller returns first.
  dht_->simulator().Schedule(0, [step] { (*step)(); });
}

void Node::FindClosest(Key target, ContactsCallback done) {
  IterativeLookup(target, /*want_value=*/false, nullptr, std::move(done));
}

void Node::Get(Key key, GetCallback done) {
  IterativeLookup(key, /*want_value=*/true, std::move(done), nullptr);
}

void Node::Store(Key key, std::string value, double ttl_sec,
                 StoreCallback done) {
  telemetry::Count("dht.stores");
  FindClosest(key, [this, key, value = std::move(value), ttl_sec,
                    done = std::move(done)](std::vector<Contact> closest) {
    // Always keep a local replica (the publisher caches its own value).
    HandleStore(Contact{id_, endpoint_}, key, value, ttl_sec);
    if (closest.empty()) {
      done(Status::OK());
      return;
    }
    auto acks = std::make_shared<int>(0);
    auto pending = std::make_shared<int>(static_cast<int>(closest.size()));
    for (const Contact& c : closest) {
      RpcStore(c, key, value, ttl_sec,
               [acks, pending, done](bool ok) {
                 if (ok) ++*acks;
                 if (--*pending == 0) {
                   done(*acks > 0
                            ? Status::OK()
                            : Status::Unavailable(
                                  "no replica acknowledged the store"));
                 }
               });
    }
  });
}

void Node::Bootstrap(const Contact& seed, ContactsCallback done) {
  Touch(seed);
  FindClosest(id_, std::move(done));
}

}  // namespace hivesim::dht
