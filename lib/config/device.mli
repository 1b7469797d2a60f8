(** Vendor-independent device configurations (the representation Bonsai
    consumes after Batfish's parsing, paper §7).

    A network is a topology plus one router configuration per node. Router
    configurations mention neighbors by node id; the compiler checks they
    agree with the topology. *)

type relation = Rel_unknown | Provider | Customer | Peer
(** Business relationship toward a BGP neighbor (Gao–Rexford): routes
    learned from a provider or peer should only be exported to customers.
    [Rel_unknown] (the default) opts the session out of transit checks. *)

val relation_equal : relation -> relation -> bool
val relation_name : relation -> string

type bgp_neighbor = {
  import_rm : Route_map.t option;  (** [None]: permit all, unchanged *)
  export_rm : Route_map.t option;
  ibgp : bool;
  rel : relation;  (** relationship {e of} the neighbor to this router *)
}

val bgp_neighbor_equal : bgp_neighbor -> bgp_neighbor -> bool
(** Field-wise equality (route maps by {!Route_map.equal}), physical
    equality first. *)

type ospf_link = { cost : int; area : int }

val ospf_link_equal : ospf_link -> ospf_link -> bool

type router = {
  name : string;
  bgp_neighbors : (int * bgp_neighbor) list;
  ospf_links : (int * ospf_link) list;
  ospf_area : int;  (** the router's own area (used for inter-area marking) *)
  static_routes : (Prefix.t * int) list;  (** prefix, next-hop node *)
  acl_out : (int * Acl.t) list;  (** outbound ACL per neighbor interface *)
  originated : Prefix.t list;  (** prefixes this router announces *)
  redistribute : Multi.redistribution list;
}

type network = { graph : Graph.t; routers : router array }

val default_router : string -> router
(** No protocols, no routes, no ACLs. *)

val ebgp_full : ?import_rm:Route_map.t -> ?export_rm:Route_map.t ->
  Graph.t -> int -> router -> router
(** [ebgp_full g v r] adds every topology neighbor of [v] as an eBGP
    neighbor of router [r] with the given (shared) route-maps. *)

val validate : network -> (unit, string) result
(** Checks that router count matches the graph, that every configured
    neighbor is a topology neighbor, and that static-route next hops are
    neighbors. *)

val originations : network -> (Prefix.t * int) list
(** All (prefix, origin node) pairs, in node order. *)

val bgp_neighbor_config : router -> int -> bgp_neighbor option
val ospf_link_config : router -> int -> ospf_link option
val acl_for : router -> int -> Acl.t option

val static_next_hops : router -> dest:Prefix.t -> int list
(** Next hops of the longest-matching static routes covering [dest].
    Several routes of the same (maximal) prefix length yield multiple
    next hops (static ECMP); less specific covering routes lose. *)

val config_lines : network -> int
(** A crude count of configuration "lines" (for reporting network scale,
    like the paper's 540k/600k-line figures). *)
