#ifndef HIVESIM_DHT_DHT_H_
#define HIVESIM_DHT_DHT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace hivesim::dht {

/// 64-bit Kademlia key space (the XOR metric works identically at any
/// width; 64 bits is ample for the cluster sizes the paper runs).
using Key = uint64_t;

/// XOR distance between two keys.
inline Key Distance(Key a, Key b) { return a ^ b; }

/// Derives a key from a string (FNV-1a), for "progress/<run>"-style keys.
Key KeyFromString(std::string_view s);

/// Another peer's address: its DHT id plus its network endpoint.
struct Contact {
  Key id = 0;
  net::NodeId node = 0;
  bool operator==(const Contact& o) const {
    return id == o.id && node == o.node;
  }
};

/// The in-simulation registry connecting DHT nodes: RPCs are delivered
/// through `net::Network::SendMessage` to the node registered at the
/// destination endpoint. Offline nodes (crashed spot VMs) silently drop
/// requests, so callers see timeouts — exactly how Hivemind experiences
/// peer failure.
class DhtNetwork {
 public:
  explicit DhtNetwork(net::Network* network) : network_(network) {}

  net::Network& network() { return *network_; }
  sim::Simulator& simulator() { return network_->simulator(); }

  /// Creates a node living on network endpoint `endpoint` with DHT id
  /// `id`; the node starts online but knows no contacts until
  /// `Bootstrap`.
  class Node* CreateNode(net::NodeId endpoint, Key id);

  /// Node registered at an endpoint (nullptr if none).
  class Node* NodeAt(net::NodeId endpoint);

 private:
  friend class Node;
  net::Network* network_;
  std::unordered_map<net::NodeId, std::unique_ptr<class Node>> nodes_;
};

/// One Kademlia participant: k-bucket routing table, local key/value
/// store with TTL expiry, iterative lookups, and store-to-k-closest
/// replication.
class Node {
 public:
  using ContactsCallback = std::function<void(std::vector<Contact>)>;
  using StoreCallback = std::function<void(Status)>;
  using GetCallback = std::function<void(Result<std::string>)>;

  Key id() const { return id_; }
  net::NodeId endpoint() const { return endpoint_; }
  bool online() const { return online_; }

  /// Takes the node offline (spot interruption): it stops answering RPCs
  /// and its pending client operations fail on their timeouts.
  void GoOffline() { online_ = false; }
  /// Brings the node back (fresh VM reusing the endpoint); the routing
  /// table survives as warm state, as Hivemind peers re-join with their
  /// previous peer list.
  void GoOnline() { online_ = true; }

  /// Inserts `seed` into the routing table and performs a lookup of our
  /// own id to populate nearby buckets. `done` receives the contacts
  /// discovered.
  void Bootstrap(const Contact& seed, ContactsCallback done);

  /// Iterative FIND_NODE: locates the k closest nodes to `target`.
  void FindClosest(Key target, ContactsCallback done);

  /// Stores `value` under `key` on the k closest nodes (after a lookup).
  /// `ttl_sec` bounds staleness; expired values vanish.
  void Store(Key key, std::string value, double ttl_sec, StoreCallback done);

  /// Iterative FIND_VALUE: returns the value or NotFound.
  void Get(Key key, GetCallback done);

  /// Contacts currently in the routing table (diagnostics/tests).
  std::vector<Contact> KnownContacts() const;
  /// Number of values held locally on behalf of the network.
  size_t stored_values() const;

 private:
  friend class DhtNetwork;
  Node(DhtNetwork* dht, net::NodeId endpoint, Key id);

  struct StoredValue {
    std::string value;
    double expires_at = 0;
  };

  // --- RPC server side (invoked via the registry) ---
  std::vector<Contact> HandleFindNode(const Contact& from, Key target);
  void HandleStore(const Contact& from, Key key, std::string value,
                   double ttl_sec);
  // Returns the value if held, otherwise the k closest contacts.
  std::pair<std::optional<std::string>, std::vector<Contact>> HandleFindValue(
      const Contact& from, Key key);

  // --- RPC client side ---
  /// Sends FIND_NODE (or FIND_VALUE when `value_key` is set) to `peer`;
  /// `on_reply(ok, value, contacts)` fires on response or timeout.
  void RpcLookup(const Contact& peer, Key target, bool want_value,
                 std::function<void(bool ok, std::optional<std::string>,
                                    std::vector<Contact>)>
                     on_reply);
  void RpcStore(const Contact& peer, Key key, const std::string& value,
                double ttl_sec, std::function<void(bool ok)> on_reply);

  /// Routing-table maintenance on any observed contact.
  void Touch(const Contact& contact);
  /// The k contacts closest to `target` from the routing table.
  std::vector<Contact> ClosestContacts(Key target, int count) const;
  void ExpireValues();

  /// Shared iterative-lookup machinery for FindClosest/Get.
  void IterativeLookup(Key target, bool want_value, GetCallback value_done,
                       ContactsCallback contacts_done);

  DhtNetwork* dht_;
  net::NodeId endpoint_;
  Key id_;
  bool online_ = true;
  // Buckets indexed by the position of the highest differing bit.
  std::vector<std::vector<Contact>> buckets_;
  std::map<Key, StoredValue> store_;
};

}  // namespace hivesim::dht

#endif  // HIVESIM_DHT_DHT_H_
