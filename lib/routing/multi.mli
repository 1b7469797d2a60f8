(** Multi-protocol routing (paper §6): a single SRP whose attributes are
    products of the per-protocol attributes plus the main RIB selection.

    Each attribute carries the node's static-route presence, its OSPF route
    and its BGP route (with an iBGP marker); the comparison relation selects
    by administrative distance of the best available protocol and then by
    that protocol's own order. Route redistribution injects routes from one
    protocol into another inside the transfer function, following Batfish's
    treatment as the paper describes.

    iBGP follows the paper's §6 discussion: iBGP sessions do not extend the
    AS path, and routes learned over iBGP are not re-advertised to other
    iBGP neighbors (so iBGP session edges can never form usable loops). *)

type proto = P_static | P_ospf | P_ebgp | P_ibgp

val proto_equal : proto -> proto -> bool

val proto_name : proto -> string
(** ["static"], ["ospf"], ["ebgp"], ["ibgp"] (for reporting). *)

val admin_distance : proto -> int
(** Static 1, eBGP 20, OSPF 110, iBGP 200 (Cisco-style defaults). *)

type bgp_route = { battr : Bgp.attr; via_ibgp : bool }

type attr = {
  static_ : bool;
  ospf : Ospf.attr option;
  bgp : bgp_route option;
}
(** Invariant: at least one component is present. *)

val selected : attr -> proto
(** The protocol the main RIB selects (least administrative distance among
    present components). *)

val compare : attr -> attr -> int

val compare_with : tie_filter:(int -> bool) -> attr -> attr -> int
(** Community tie-break restricted as in {!Bgp.compare_with}. *)

val equal : attr -> attr -> bool
(** Typed structural equality (never polymorphic [=]). *)

type redistribution = Ospf_into_bgp | Static_into_bgp | Bgp_into_ospf

val redistribution_equal : redistribution -> redistribution -> bool

val redistribution_compare : redistribution -> redistribution -> int
(** Declaration order: [Ospf_into_bgp < Static_into_bgp < Bgp_into_ospf]. *)

type edges = {
  graph : Graph.t;  (** the topology the tables are indexed by *)
  ospf_on : bool array;  (** edge id -> OSPF adjacency on the edge *)
  ospf_cost : int array;  (** edge id -> receiver-side cost, where [ospf_on] *)
  bgp_on : bool array;  (** edge id -> BGP session on the edge *)
  ibgp : bool array;  (** edge id -> the session is iBGP, where [bgp_on] *)
  static_on : bool array;
      (** edge id -> the receiver routes the destination statically via
          the sender *)
  bgp_policy : int -> Bgp.attr -> Bgp.attr option;
      (** edge id -> the session's policy, where [bgp_on] *)
  area : int array;  (** node -> OSPF area *)
  bgp_into_ospf : bool array;  (** node -> redistributes BGP into OSPF *)
  ospf_into_bgp : bool array;
  static_into_bgp : bool array;
}
(** One destination's multi-protocol configuration as arrays indexed by
    {!Graph.edge_index} of [graph] (receiver first) and by node. *)

val of_edges :
  ?bgp_tie_filter:(int -> bool) ->
  ?origin_protocols:proto list ->
  edges ->
  dest:int ->
  attr Srp.t
(** The SRP over [graph]. Its transfer reads the tables only; it is
    defined on the edges of [graph] (and of any subgraph on the same
    nodes, such as a failure scenario's) and drops on any other pair. *)

val make :
  ?ospf_cost:(int -> int -> int) ->
  ?ospf_area:(int -> int) ->
  ?ospf_enabled:(int -> int -> bool) ->
  ?bgp_enabled:(int -> int -> bool) ->
  ?ibgp:(int -> int -> bool) ->
  ?bgp_policy:(int -> int -> Bgp.policy) ->
  ?static_routes:(int * int) list ->
  ?redistribute:(int -> redistribution list) ->
  ?bgp_tie_filter:(int -> bool) ->
  ?origin_protocols:proto list ->
  Graph.t ->
  dest:int ->
  attr Srp.t
(** Per-edge predicates receive [(u, v)] with [u] the receiving node.
    [ospf_enabled]/[bgp_enabled] default to all edges; [ibgp] to none;
    [bgp_policy] to accept-unchanged; [origin_protocols] (which protocols
    the destination originates into) defaults to OSPF and eBGP. Each
    per-edge closure is evaluated once per edge of the graph (the
    per-node ones once per node), and the result is {!of_edges} of those
    tables. *)

val pp : Format.formatter -> attr -> unit
