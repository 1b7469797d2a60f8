(** Policy-signature cache: hash-consed route-map BDDs that survive
    recompressions.

    All BDDs live in one shared manager, so a route-map's canonical BDD id
    ([Bdd.hash]) is stable across recompressions — recompiling the
    policies of an untouched device is a table lookup, and two policies
    are semantically equal iff their cached ids are equal {e across} the
    old and the new network. Keys are [(destination prefix, route-map)]
    pairs compared structurally (route-maps are plain data). The cache is
    only valid while the attribute universe of the network is unchanged;
    {!compatible} checks that, and the incremental engine rebuilds the
    cache when it fails. *)

type t

val create : Device.network -> t
(** Fresh cache with a universe built from the network
    (matched-communities attribute abstraction, as [Bonsai_api.compress]
    defaults to). The table keeps every entry: it holds roots into the
    one manager, whose node table grows with them either way, so a
    resident engine's memory bound must act on the manager (rebuild it,
    re-encoding the live roots), not on this table's keys. *)

val universe : t -> Policy_bdd.universe

val compatible : t -> Device.network -> bool
(** Would {!create} on this network produce the same universe (same
    communities, local-preference and MED values, same variable layout)?
    When false, cached BDDs are meaningless for the network and the cache
    must be rebuilt. The network the cache was built from, and the last
    one found compatible, answer by physical identity without a scan. *)

val rm_bdd : t -> dest:Prefix.t -> Route_map.t option -> Bdd.t
(** The relation BDD of a route-map specialized to [dest] ([None] =
    permit-all), encoding on miss. Shaped so
    [rm_bdd cache ~dest : Route_map.t option -> Bdd.t] plugs directly
    into [Compile.signature_table ?rm_bdd]. *)

val stats : t -> int * int
(** Cumulative (hits, misses) of {!rm_bdd} lookups. *)

val bdd_stats : t -> Bdd.stats
(** Node-table and memo statistics of the shared manager. *)
