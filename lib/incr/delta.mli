(** Configuration deltas: the change vocabulary of the incremental engine.

    A delta names routers by their topology name (never by node id), so a
    delta list computed against one network applies to any network with
    the same names — node ids may be renumbered by unrelated changes.
    [diff] and [apply] are inverses on the semantic content of a network:
    [apply a (diff a b)] is semantically equal to [b], so
    [diff (apply a (diff a b)) b] is [[]] (router and neighbor-list
    orderings may differ; every observer keyed by node id or name agrees).
    Both run in time linear in the two networks plus the change. *)

type dir = Import | Export

type t =
  | Link_up of string * string
      (** add the undirected link; both routers must exist *)
  | Link_down of string * string
      (** remove the link {e and} both endpoints' per-neighbor
          configuration for it (BGP session, OSPF interface, ACL, static
          routes via the neighbor) — a link failure, not a config edit *)
  | Node_add of string  (** append a fresh router with no configuration *)
  | Node_remove of string
      (** remove the router, its links, and every other router's
          per-neighbor configuration referencing it *)
  | Ospf_cost of { node : string; nbr : string; cost : int }
      (** change the cost of an existing OSPF interface *)
  | Ospf_link_set of {
      node : string;
      nbr : string;
      link : Device.ospf_link option;
    }  (** add/replace ([Some]) or remove ([None]) an OSPF interface *)
  | Ospf_area_set of { node : string; area : int }
  | Route_map_set of {
      node : string;
      nbr : string;
      dir : dir;
      rm : Route_map.t option;
    }  (** replace one route-map of an existing BGP session *)
  | Bgp_neighbor_set of {
      node : string;
      nbr : string;
      config : Device.bgp_neighbor option;
    }  (** add/replace ([Some]) or remove ([None]) a BGP session *)
  | Acl_set of { node : string; nbr : string; acl : Acl.t option }
  | Static_set of { node : string; routes : (Prefix.t * string) list }
      (** replace the router's static routes (next hops by name) *)
  | Originate_set of { node : string; prefixes : Prefix.t list }
  | Redistribute_set of {
      node : string;
      redistribute : Multi.redistribution list;
    }

val diff : Device.network -> Device.network -> t list
(** A delta list turning the first network into the second. Empty iff the
    networks are semantically equal. Emitted in application order: node
    removals, link removals, node additions, link additions, then
    per-router configuration changes (route-map-granular when only a
    session's import/export map changed).

    Routers are matched by name through each graph's name table and links
    by one merge of the sorted neighbor arrays. A router record, or any
    list, map or ACL in it, that both networks share physically under
    unchanged node ids is equal without a look inside; other lists are
    compared entry by entry, and put in canonical name order only where
    they differ. *)

val id_map : Device.network -> Device.network -> int array option
(** [id_map a b] pairs the routers of [a] with those of [b] by name:
    each node id of [a] maps to the id of the same-named router of [b],
    or [-1]. [None] when both number the same routers alike. *)

val apply : Device.network -> t list -> Device.network
(** Apply deltas in order. Node ids of routers present in both networks
    are preserved whenever no node is added or removed; added routers get
    fresh ids past the existing ones. Every router comes out in canonical
    order (neighbor lists by node id, static routes by prefix and next-hop
    name, originated prefixes sorted, redistribution deduplicated); a
    router no delta touches keeps its record when it already is, and the
    graph is kept when no node or link changed (and every edge has its
    reverse), so a later [diff] finds them physically equal.
    @raise Invalid_argument when a delta references an unknown router, an
    [Ospf_cost]/[Route_map_set] targets a non-existent interface/session,
    or a [Node_add]/[Link_up] duplicates an existing name/link. A name
    that no router takes by the end is reported for the first router in
    node order that refers to it and, within that router, looked up in
    its ACLs, static routes, OSPF interfaces, then BGP sessions. *)

val work : unit -> int
(** Work units [diff] and [apply] have done on the calling domain so far:
    routers and list entries compared or walked, link-merge steps, deltas
    applied and routers and edges finished. Deterministic, so a test can
    bound it where a timer would be noise: both are linear in routers
    plus links plus the change. *)

val touched : Device.network -> t -> int list
(** Node ids (in the given network) whose configuration or incident
    topology the delta may change — every named router that resolves,
    including static-route next hops. Conservative and name-based, so it
    can be evaluated against the pre- or post-change network. *)

val is_topology : t -> bool
(** Changes the link set ([Link_up], [Link_down], [Node_add],
    [Node_remove]). *)

val is_node_change : t -> bool
(** Changes the node set — node ids are not comparable across the change
    and the incremental engine falls back to a full recompute. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
